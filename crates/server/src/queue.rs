//! The core's request queue: a **fair queue** with one FIFO lane per
//! submitter (a TCP connection each; in-process callers share lane 0),
//! served round robin one item per turn, so one chatty submitter cannot
//! starve the rest. A global capacity bounds the total; each push names
//! its lane's bound. One `Mutex` plus two `Condvar`s, as in the vendored
//! channel; a lane leaves the map when it empties.

use crate::lock_clean;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Why [`FairQueue::push`] refused an item (the item is dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds its global capacity and the push would not block.
    Full,
    /// The submitter's lane holds its own bound.
    LaneFull,
    /// [`FairQueue::close`] ran; nothing is accepted any more.
    Closed,
}

struct State<T> {
    lanes: BTreeMap<u64, VecDeque<T>>,
    /// Non-empty lanes in serving order: exactly the keys of `lanes`.
    ring: VecDeque<u64>,
    len: usize,
    peak: usize,
    closed: bool,
}

pub struct FairQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    space: Condvar,
    /// Global bound on queued items; `0` is unbounded.
    capacity: usize,
}

impl<T> FairQueue<T> {
    pub fn new(capacity: usize) -> Self {
        let (lanes, ring) = (BTreeMap::new(), VecDeque::new());
        let state = Mutex::new(State { lanes, ring, len: 0, peak: 0, closed: false });
        FairQueue { state, ready: Condvar::new(), space: Condvar::new(), capacity }
    }

    /// Appends `item` to `lane`, which may hold at most `cap` items. At the
    /// global capacity a `block`ing push waits for a `pop` to free space;
    /// otherwise it returns [`PushError::Full`].
    pub fn push(&self, lane: u64, cap: usize, item: T, block: bool) -> Result<(), PushError> {
        let mut state = lock_clean(&self.state);
        loop {
            if state.closed {
                return Err(PushError::Closed);
            }
            if state.lanes.get(&lane).map_or(0, VecDeque::len) >= cap {
                return Err(PushError::LaneFull);
            }
            if self.capacity == 0 || state.len < self.capacity {
                break;
            }
            if !block {
                return Err(PushError::Full);
            }
            state = self.space.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let State { lanes, ring, len, peak, .. } = &mut *state;
        let queue = lanes.entry(lane).or_default();
        if queue.is_empty() {
            ring.push_back(lane);
        }
        queue.push_back(item);
        *len += 1;
        *peak = (*peak).max(*len);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the front item of the next lane in the ring, parking while
    /// the queue is empty; `None` once the queue is closed and empty.
    pub fn pop(&self) -> Option<T> {
        let mut state = lock_clean(&self.state);
        loop {
            let State { lanes, ring, len, closed, .. } = &mut *state;
            if let Some(lane) = ring.pop_front() {
                let Some(queue) = lanes.get_mut(&lane) else { continue };
                let Some(item) = queue.pop_front() else { continue };
                if queue.is_empty() {
                    lanes.remove(&lane);
                } else {
                    ring.push_back(lane);
                }
                *len -= 1;
                drop(state);
                self.space.notify_one();
                return Some(item);
            }
            if *closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Refuses every later push; poppers drain what is queued, then get
    /// `None`. Idempotent.
    pub fn close(&self) {
        lock_clean(&self.state).closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Items queued and not yet popped, and the most there ever were.
    pub fn depths(&self) -> (usize, usize) {
        let state = lock_clean(&self.state);
        (state.len, state.peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    /// How long a test waits before calling a wake-up lost.
    const LIVENESS: Duration = Duration::from_secs(5);
    /// How long a test waits to see that a thread is still parked.
    const PARKED: Duration = Duration::from_millis(50);

    #[test]
    fn workers_pop_round_robin_across_lanes_with_uneven_backlogs() {
        let queue = FairQueue::new(0);
        for (lane, items) in [(7, 1..6), (2, 11..13), (9, 21..22)] {
            for item in items {
                queue.push(lane, usize::MAX, item, false).expect("room");
            }
        }
        assert_eq!(queue.depths().0, 8);
        let order: Vec<u32> = (0..8).filter_map(|_| queue.pop()).collect();
        // Lanes are served in the order they became non-empty, one item
        // per lane per turn; a drained lane drops out of the ring.
        assert_eq!(order, vec![1, 11, 21, 2, 12, 3, 4, 5]);
        assert_eq!(queue.depths().0, 0);
        // A lane that drained and refills rejoins at the back.
        queue.push(2, usize::MAX, 13, false).expect("room");
        queue.push(7, usize::MAX, 6, false).expect("room");
        assert_eq!((queue.pop(), queue.pop()), (Some(13), Some(6)));
    }

    #[test]
    fn the_global_cap_is_full_and_the_lane_cap_is_lane_full() {
        let queue = FairQueue::new(3);
        assert_eq!(queue.push(1, 2, 'a', false), Ok(()));
        assert_eq!(queue.push(1, 2, 'b', false), Ok(()));
        assert_eq!(queue.push(1, 2, 'c', false), Err(PushError::LaneFull));
        assert_eq!(queue.push(2, 0, 'c', false), Err(PushError::LaneFull));
        assert_eq!(queue.push(2, 2, 'c', false), Ok(()));
        assert_eq!(queue.push(3, 2, 'd', false), Err(PushError::Full));
        assert_eq!(queue.depths(), (3, 3), "refused pushes queue nothing");
        assert_eq!(queue.pop(), Some('a'));
        assert_eq!(queue.push(3, 2, 'd', false), Ok(()));
        assert_eq!(queue.depths(), (3, 3), "the peak never passes the global cap");
    }

    #[test]
    fn push_after_close_is_closed_and_pop_drains_then_ends() {
        let queue = FairQueue::new(0);
        queue.push(1, usize::MAX, 1, false).expect("room");
        queue.push(2, usize::MAX, 2, false).expect("room");
        queue.close();
        queue.close();
        assert_eq!(queue.push(1, usize::MAX, 3, true), Err(PushError::Closed));
        assert_eq!((queue.pop(), queue.pop(), queue.pop()), (Some(1), Some(2), None));
        assert_eq!(queue.pop(), None, "a closed, empty queue stays ended");
    }

    /// Runs `queue.pop()` on a thread and reports its result.
    fn parked_pop(queue: &Arc<FairQueue<u32>>) -> mpsc::Receiver<Option<u32>> {
        let (tx, rx) = mpsc::channel();
        let queue = Arc::clone(queue);
        std::thread::spawn(move || {
            let _ = tx.send(queue.pop());
        });
        assert!(rx.recv_timeout(PARKED).is_err(), "pop on an empty queue must park");
        rx
    }

    #[test]
    fn a_parked_pop_wakes_on_push_and_on_close() {
        let queue = Arc::new(FairQueue::new(0));
        let popped = parked_pop(&queue);
        queue.push(4, usize::MAX, 42, false).expect("room");
        assert_eq!(popped.recv_timeout(LIVENESS), Ok(Some(42)), "push must wake the parked pop");

        let popped = parked_pop(&queue);
        queue.close();
        assert_eq!(popped.recv_timeout(LIVENESS), Ok(None), "close must wake the parked pop");
    }

    #[test]
    fn a_blocked_push_wakes_when_a_pop_frees_space() {
        let queue = Arc::new(FairQueue::new(1));
        queue.push(0, usize::MAX, 1, true).expect("room");
        let (tx, rx) = mpsc::channel();
        {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let _ = tx.send(queue.push(0, usize::MAX, 2, true));
            });
        }
        assert!(rx.recv_timeout(PARKED).is_err(), "a push at capacity must block");
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(rx.recv_timeout(LIVENESS), Ok(Ok(())), "the pop must wake the blocked push");
        assert_eq!(queue.pop(), Some(2));

        // A push blocked at capacity when the queue closes gets `Closed`.
        queue.push(0, usize::MAX, 3, true).expect("room");
        let (tx, rx) = mpsc::channel();
        {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let _ = tx.send(queue.push(0, usize::MAX, 4, true));
            });
        }
        assert!(rx.recv_timeout(PARKED).is_err(), "a push at capacity must block");
        queue.close();
        assert_eq!(rx.recv_timeout(LIVENESS), Ok(Err(PushError::Closed)));
    }
}
