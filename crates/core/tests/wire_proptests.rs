//! Property tests for the wire decoders on hostile input: random bytes and
//! random nestings never panic either decoder (a panic or a stack
//! overflow fails the suite), and a well-formed nesting decodes exactly
//! when it is within [`wire::MAX_DEPTH`].

use proptest::prelude::*;
use spottune_core::wire::{self, ClientFrame};

/// Decodes `text` both ways; a panic fails the calling property.
fn decode_both(text: &str) -> (bool, bool) {
    (wire::decode_client_frame(text).is_ok(), wire::decode_server_frame(text).is_ok())
}

/// JSON-ish fragments the token soup is built from.
const TOKENS: [&str; 12] =
    ["[", "]", "{", "}", "\"k\":", ",", "1", "-2.5e3", "\"s\"", "true", "null", "\"\\u00e9\""];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic_either_decoder(
        bytes in prop::collection::vec(0u64..256, 0..400),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        decode_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn random_nestings_never_panic_either_decoder(
        openers in prop::collection::vec(0usize..2, 0..400),
        soup in prop::collection::vec(0usize..12, 0..200),
        closers in 0usize..400,
    ) {
        let mut text: String = openers.iter().map(|&o| ["[", "{\"k\":"][o]).collect();
        text.extend(soup.iter().map(|&t| TOKENS[t]));
        text.extend(std::iter::repeat_n("]", closers));
        decode_both(&text);
    }

    #[test]
    fn a_well_formed_nesting_decodes_iff_within_the_cap(
        shape in prop::collection::vec(any::<bool>(), 0..(2 * wire::MAX_DEPTH)),
    ) {
        // `shape[i]` picks an array or an object for level i + 2; the
        // frame object itself is level 1.
        let open: String = shape.iter().map(|&arr| if arr { "[" } else { "{\"k\":" }).collect();
        let close: String = shape.iter().rev().map(|&arr| if arr { "]" } else { "}" }).collect();
        let pad = format!("{open}0{close}");
        let depth = 1 + shape.len();
        let within = depth <= wire::MAX_DEPTH;

        let client = wire::decode_client_frame(&format!("{{\"stats\":true,\"pad\":{pad}}}"));
        prop_assert_eq!(client.is_ok(), within, "client frame, depth {}", depth);
        if within {
            prop_assert_eq!(client, Ok(ClientFrame::Stats));
        }
        let server = wire::decode_server_frame(&format!("{{\"stats\":{{}},\"pad\":{pad}}}"));
        prop_assert_eq!(server.is_ok(), within, "server frame, depth {}", depth);
    }
}
