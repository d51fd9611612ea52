//! The token-pattern rules: D1 (wall-clock/entropy), D2 (hash-order
//! iteration), D3 (float equality), P1 (panic paths), U1 (`unsafe`
//! confinement). Each rule has a stable ID, a one-line summary for
//! listings, and a long `--explain` text documenting why the pattern is
//! banned and what to do instead.

use crate::lexer::{lex, test_regions, Spanned, Tok};

/// One lint finding, machine-readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`D1`, `D2`, `D3`, `P1`, `U1`).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// What was matched and why it matters.
    pub message: String,
    /// The source line the finding sits on (trimmed); allowlist entries
    /// match against this, which keeps them stable across line-number
    /// drift.
    pub snippet: String,
}

/// Static rule metadata, shared by `--list-rules` and `--explain`.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub explain: &'static str,
}

/// Every rule spotlint knows, in ID order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        summary: "wall-clock/entropy source in a determinism-critical crate",
        explain: "\
D1 — nondeterministic input sources.

The simulation core is locked by bit-identical equivalence suites
(tick≡event, policy/estimator defaults, fault-plan replay). Those suites
only hold if every result is a pure function of (request, scenario, seed).
Reading the wall clock (`SystemTime::now`, `Instant::now`), ambient
entropy (`thread_rng`, `from_entropy`) or the process environment
(`std::env::var`, `env::args`) inside `core`/`cloud`/`market`/`revpred`/
`earlycurve` injects outside state into that function.

Instead: thread simulated time (`SimTime`/`SimDur`) and seeds explicitly;
derive per-decision randomness from `spottune_market::seeding` (splitmix64
of (seed, coordinates)); read configuration at the binary boundary
(`crates/bench`) and pass it down as values.

Timing for *measurement* belongs in `crates/bench`, which is not scanned.",
    },
    RuleInfo {
        id: "D2",
        summary: "HashMap/HashSet in a determinism-critical crate (iteration order can escape)",
        explain: "\
D2 — hash-order containers in determinism-critical crates.

`std::collections::HashMap`/`HashSet` iterate in randomized order (SipHash
with a per-process key). Any iteration — `values()`, `keys()`, `iter()`,
`Debug` formatting, `min_by_key` tie-breaking, eviction victim selection —
can leak that order into results, logs, or cache behaviour, breaking the
bit-identity invariants the equivalence suites enforce.

Instead: use `BTreeMap`/`BTreeSet` (deterministic key order), or collect
and sort before iterating. Pure point lookups are *still* flagged: the
next edit adds an innocent-looking iteration, and the container type is
the cheap place to make order a non-issue. If a hash container is truly
required, allowlist the audited line in `spotlint.allow` with a comment.",
    },
    RuleInfo {
        id: "D3",
        summary: "float == / != comparison in core/earlycurve",
        explain: "\
D3 — exact float equality in `core`/`earlycurve`.

Comparing floats with `==`/`!=` against a float literal is almost always a
rounding bug waiting to happen: a value that is mathematically equal can
differ in the last ulp after reassociation, and the comparison silently
flips. In the engine and the curve fitter these comparisons guard
numerical pivots and thresholds where the failure mode is a wrong
provisioning decision, not a crash.

Instead: compare against an explicit tolerance (`(a - b).abs() < EPS`),
or restructure so the sentinel is not a float. Exact-zero checks that are
*intentional* (e.g. a Gaussian-elimination pivot guard, where any nonzero
value is usable and exact zero is the only singular case) are legitimate:
allowlist them in `spotlint.allow` with the audit rationale.

Test code is exempt — the equivalence suites compare floats bit-for-bit
on purpose.",
    },
    RuleInfo {
        id: "P1",
        summary: "unwrap/expect/panic! in the server request path, TCP front-end, wire decode, or client; \
                  `thread::spawn` in the server or client",
        explain: "\
P1 — panics reachable from untrusted input.

`spottune_core::wire` decodes bytes that arrive from outside the process,
`spottune_server` (the core pool and the `net` TCP front-end) executes
whatever decoded, and `spottune_client` parses whatever the server sent
back. A panic in any of these places turns one malformed frame into a
dropped worker, a poisoned lock, or a wedged client stream. The decode
path must return `WireError` for every malformed input, and the request
path must degrade per-request, never per-process.

Instead: `?` with a typed error on the decode side; validation at the
submission boundary (`CampaignRequest::validate`,
`CampaignServer::submit_sweep_checked`) on the server side. Deliberate,
documented panics (propagating a worker panic at shutdown, resource
exhaustion at startup) are audited via `spotlint.allow`.

`thread::spawn` anywhere in the server or client crates is flagged too:
it panics when the OS refuses a thread, so a burst of connections would
take down the accept loop and every queued campaign with it. Use
`thread::Builder::new().spawn(..)` and handle the `Err`.

Test code is exempt.",
    },
    RuleInfo {
        id: "U1",
        summary: "`unsafe` outside the audited kernel modules",
        explain: "\
U1 — `unsafe` stays confined to the kernel modules.

The lane kernels (`crates/earlycurve/src/kernel.rs`, staged through
`crates/core/src/soa.rs`) are the one place this workspace tolerates
`unsafe`: a hot loop may eventually need `get_unchecked` or explicit SIMD
intrinsics, and those files are small, heavily tested (bit-identity
proptests against the scalar reference, the batch-equivalence matrix) and
reviewed as a unit. Everywhere else, `unsafe` undermines the guarantees
the equivalence suites lean on — a stray out-of-bounds read is
nondeterminism D1 can't see.

As of this rule's introduction the kernels need **zero** unsafe — they
reach the vectorizer through chunked `[f64; LANE_WIDTH]` arrays — so any
new `unsafe` is a deliberate decision. Inside a kernel module it passes
the lint but still needs the usual review; outside, either move the code
into a kernel module or allowlist the audited line in `spotlint.allow`
with a rationale comment (why it is sound, why safe code can't do it).

Test code is exempt, like every token rule.",
    },
];

/// Looks up a rule's metadata by ID.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))
}

/// Context handed to the token rules for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, forward slashes.
    pub path: &'a str,
    /// Raw source lines, for snippets.
    pub lines: Vec<&'a str>,
    /// Token stream.
    pub toks: Vec<Spanned>,
    /// `true` at index i when the token belongs to `#[cfg(test)]` code.
    pub in_test: Vec<bool>,
}

impl<'a> FileCtx<'a> {
    /// Lexes `src` and precomputes test regions. Files under a `tests/`
    /// directory are test code in their entirety.
    pub fn new(path: &'a str, src: &'a str) -> Self {
        let toks = lex(src);
        let mut in_test = vec![is_test_path(path); toks.len()];
        if !is_test_path(path) {
            for (s, e) in test_regions(&toks) {
                for flag in in_test.iter_mut().take(e + 1).skip(s) {
                    *flag = true;
                }
            }
        }
        FileCtx { path, lines: src.lines().collect(), toks, in_test }
    }

    fn snippet(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn finding(&self, rule: &'static str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            file: self.path.to_string(),
            line,
            message,
            snippet: self.snippet(line),
        }
    }
}

fn is_test_path(path: &str) -> bool {
    path.contains("/tests/") || path.starts_with("tests/")
}

/// D1: wall-clock, entropy and environment reads.
pub fn check_d1(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = t.tok.ident() else { continue };
        let msg = match name {
            "SystemTime" => Some("`SystemTime` reads the wall clock; use simulated `SimTime`"),
            "Instant" if next_is_path_call(ctx, i, "now") => {
                Some("`Instant::now()` reads the wall clock; timing belongs in crates/bench")
            }
            "thread_rng" => {
                Some("`thread_rng()` is ambient entropy; derive randomness from seeding::*")
            }
            "from_entropy" => {
                Some("`from_entropy()` is ambient entropy; seed explicitly")
            }
            "env" if next_is_env_read(ctx, i) => {
                Some("process-environment read; take configuration as explicit values")
            }
            _ => None,
        };
        if let Some(msg) = msg {
            out.push(ctx.finding("D1", t.line, msg.to_string()));
        }
    }
    out
}

/// `ident :: callee` immediately after token `i`.
fn next_is_path_call(ctx: &FileCtx, i: usize, callee: &str) -> bool {
    ctx.toks.get(i + 1).is_some_and(|t| t.tok.is_op("::"))
        && ctx.toks.get(i + 2).is_some_and(|t| t.tok.is_ident(callee))
}

fn next_is_env_read(ctx: &FileCtx, i: usize) -> bool {
    ["var", "vars", "var_os", "args", "args_os"]
        .iter()
        .any(|callee| next_is_path_call(ctx, i, callee))
}

/// D2: hash-order containers.
pub fn check_d2(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        if let Some(name @ ("HashMap" | "HashSet")) = t.tok.ident() {
            out.push(ctx.finding(
                "D2",
                t.line,
                format!(
                    "`{name}` iteration order is nondeterministic; use BTree{} or sorted iteration",
                    &name[4..]
                ),
            ));
        }
    }
    out
}

/// D3: `==`/`!=` with a float literal on either side, or against NAN.
pub fn check_d3(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let op = match &t.tok {
            Tok::Op(o @ ("==" | "!=")) => *o,
            _ => continue,
        };
        let prev_float = i > 0 && operand_is_float(&ctx.toks, i - 1, true);
        let next_float = operand_is_float(&ctx.toks, i + 1, false);
        if prev_float || next_float {
            out.push(ctx.finding(
                "D3",
                t.line,
                format!(
                    "float `{op}` comparison; compare with an explicit tolerance or \
                     allowlist the audited exact check"
                ),
            ));
        }
    }
    out
}

/// Whether the operand adjacent to a comparison is a float literal or the
/// NAN constant. `before` looks left of the operator (operand *ends* at
/// `j`), otherwise right (operand *starts* at `j`, possibly behind a
/// unary minus or a path like `f64::NAN`).
fn operand_is_float(toks: &[Spanned], j: usize, before: bool) -> bool {
    let Some(t) = toks.get(j) else { return false };
    match &t.tok {
        Tok::Float(_) => true,
        Tok::Ident(s) if s == "NAN" => true,
        Tok::Punct('-') if !before => operand_is_float(toks, j + 1, false),
        Tok::Ident(s) if !before && (s == "f64" || s == "f32") => {
            toks.get(j + 1).is_some_and(|t| t.tok.is_op("::"))
                && toks.get(j + 2).is_some_and(|t| t.tok.is_ident("NAN"))
        }
        _ => false,
    }
}

/// P1: `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`,
/// `unimplemented!`.
pub fn check_p1(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = t.tok.ident() else { continue };
        let finding = match name {
            "unwrap" | "expect" => {
                // Method call: preceded by `.`, followed by `(`. For
                // `expect`, additionally require a string-literal message
                // argument — that is the panicking Option/Result form, as
                // opposed to e.g. a parser's own `fn expect(&mut self, b: u8)
                // -> Result<..>` which returns the error instead of dying.
                let method = i > 0
                    && ctx.toks[i - 1].tok.is_punct('.')
                    && ctx.toks.get(i + 1).is_some_and(|t| t.tok.is_punct('('));
                let panicking = method
                    && match name {
                        "unwrap" => {
                            ctx.toks.get(i + 2).is_some_and(|t| t.tok.is_punct(')'))
                        }
                        _ => ctx
                            .toks
                            .get(i + 2)
                            .is_some_and(|t| matches!(t.tok, Tok::Str(_))),
                    };
                panicking.then(|| {
                    format!("`.{name}()` can panic on malformed input; return a typed error")
                })
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                let mac = ctx.toks.get(i + 1).is_some_and(|t| t.tok.is_punct('!'));
                mac.then(|| {
                    format!("`{name}!` in a request path takes down the worker; return an error")
                })
            }
            _ => None,
        };
        if let Some(message) = finding {
            out.push(ctx.finding("P1", t.line, message));
        }
    }
    out
}

/// P1: `thread::spawn(`, which panics when the OS refuses a thread.
/// `Builder::new().spawn(` and `scope.spawn(` are not this path and pass.
pub fn check_spawn(ctx: &FileCtx) -> Vec<Finding> {
    let is = |i: usize, name: &str| ctx.toks[i].tok.is_ident(name);
    let message = "use `thread::Builder::spawn`: `thread::spawn` panics when the OS refuses a thread";
    (2..ctx.toks.len())
        .filter(|&i| !ctx.in_test[i] && is(i - 2, "thread") && ctx.toks[i - 1].tok.is_op("::"))
        .filter(|&i| is(i, "spawn") && ctx.toks.get(i + 1).is_some_and(|t| t.tok.is_punct('(')))
        .map(|i| ctx.finding("P1", ctx.toks[i].line, message.to_string()))
        .collect()
}

/// The audited homes of `unsafe` (U1): the lane kernel and its SoA
/// staging layer. Workspace-relative paths, forward slashes.
pub const KERNEL_MODULES: &[&str] =
    &["crates/earlycurve/src/kernel.rs", "crates/core/src/soa.rs"];

/// U1: the `unsafe` keyword anywhere outside [`KERNEL_MODULES`].
///
/// One finding per `unsafe` token — block, fn, impl or trait position all
/// count; holding an unsafe obligation is the reviewable event, not the
/// particular syntax carrying it.
pub fn check_u1(ctx: &FileCtx) -> Vec<Finding> {
    if KERNEL_MODULES.contains(&ctx.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        if t.tok.is_ident("unsafe") {
            out.push(ctx.finding(
                "U1",
                t.line,
                "`unsafe` outside the kernel modules; move it into a kernel module or \
                 allowlist the audited line"
                    .to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(path: &'a str, src: &'a str) -> FileCtx<'a> {
        FileCtx::new(path, src)
    }

    #[test]
    fn d1_flags_clock_entropy_env() {
        let src = r#"
            fn f() {
                let t = std::time::SystemTime::now();
                let i = Instant::now();
                let r = rand::thread_rng();
                let v = std::env::var("X");
            }
        "#;
        let f = check_d1(&ctx("crates/core/src/x.rs", src));
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn d1_ignores_instant_without_now_and_env_struct() {
        let src = "fn f(deadline: Instant, env: &Env) { env.get(1); }";
        assert!(check_d1(&ctx("crates/core/src/x.rs", src)).is_empty());
    }

    #[test]
    fn d2_flags_hash_containers_outside_tests() {
        let src = r#"
            use std::collections::HashMap;
            struct S { m: HashMap<u32, u32> }
            #[cfg(test)]
            mod tests {
                fn t() { let h: std::collections::HashSet<u8> = Default::default(); }
            }
        "#;
        let f = check_d2(&ctx("crates/market/src/x.rs", src));
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "D2"));
    }

    #[test]
    fn d3_flags_float_literal_comparisons_only() {
        let src = r#"
            fn f(x: f64, n: u64) -> bool {
                let a = x == 0.0;
                let b = 1.5 != x;
                let c = x == f64::NAN;
                let d = n == 0;       // integer: fine
                let e = x == -0.5;
                (x - 0.3).abs() < 1e-9
            }
        "#;
        let f = check_d3(&ctx("crates/core/src/x.rs", src));
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn p1_flags_method_panics_and_macros() {
        let src = r#"
            fn f(o: Option<u8>) -> u8 {
                let a = o.unwrap();
                let b = o.expect("there");
                if a > b { panic!("no"); }
                unreachable!()
            }
            fn fine(o: Option<u8>) -> u8 { o.unwrap_or(0) }
        "#;
        let f = check_p1(&ctx("crates/server/src/lib.rs", src));
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn p1_flags_thread_spawn_but_not_builder_or_scope_spawns() {
        let src = r#"
            fn f() {
                std::thread::spawn(|| {});
                thread::spawn(move || work());
                let b = std::thread::Builder::new().spawn(|| {});
                std::thread::scope(|scope| { scope.spawn(|| {}); });
            }
            #[cfg(test)]
            mod tests { fn t() { std::thread::spawn(|| {}); } }
        "#;
        let f = check_spawn(&ctx("crates/server/src/net.rs", src));
        assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), vec![3, 4], "{f:?}");
        assert!(f.iter().all(|f| f.rule == "P1" && f.message.contains("thread::Builder::spawn")));
    }

    #[test]
    fn tests_directories_are_fully_exempt() {
        let src = "fn t() { x.unwrap(); let m: HashMap<u8,u8> = h(); assert!(a == 0.0); }";
        let c = ctx("crates/core/tests/equiv.rs", src);
        assert!(check_p1(&c).is_empty());
        assert!(check_d2(&c).is_empty());
        assert!(check_d3(&c).is_empty());
    }

    #[test]
    fn u1_flags_unsafe_in_every_position_outside_kernels() {
        let src = r#"
            unsafe fn raw(p: *const f64) -> f64 { *p }
            fn f(v: &[f64]) -> f64 {
                unsafe { *v.get_unchecked(0) }
            }
            unsafe impl Send for Wrapper {}
        "#;
        let f = check_u1(&ctx("crates/core/src/engine.rs", src));
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "U1"));
    }

    #[test]
    fn u1_exempts_kernel_modules_and_test_code() {
        let src = "fn f(v: &[f64]) -> f64 { unsafe { *v.get_unchecked(0) } }";
        for path in KERNEL_MODULES {
            assert!(check_u1(&ctx(path, src)).is_empty(), "{path} is the audited home");
        }
        assert!(check_u1(&ctx("crates/core/tests/equiv.rs", src)).is_empty());
        let gated = "#[cfg(test)] mod tests { fn t() { unsafe { core::hint::unreachable_unchecked() } } }";
        assert!(check_u1(&ctx("crates/core/src/x.rs", gated)).is_empty());
    }

    #[test]
    fn u1_ignores_near_miss_identifiers_and_strings() {
        let src = r#"
            // unsafe in a comment is not code
            fn unsafe_free_len(s: &str) -> usize { s.len() }
            fn describe() -> &'static str { "unsafe spelled in a string" }
        "#;
        assert!(check_u1(&ctx("crates/core/src/x.rs", src)).is_empty());
    }

    #[test]
    fn every_rule_has_explain_text() {
        for r in RULES {
            assert!(!r.explain.is_empty() && !r.summary.is_empty(), "{}", r.id);
        }
        assert!(rule_info("d2").is_some(), "lookup is case-insensitive");
        assert!(rule_info("Z9").is_none());
    }
}
