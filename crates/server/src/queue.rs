//! The core's request queue: a **fair queue** with one FIFO lane per
//! submitter (a TCP connection each; in-process callers share lane 0),
//! served round robin one item per turn, so one chatty submitter cannot
//! starve the rest. A global capacity bounds the total; each push names
//! its lane's bound. One `Mutex` plus two `Condvar`s; a lane leaves the
//! map when it empties.
//!
//! A parked worker's turn can be *lent* ([`FairQueue::lend`]) to a caller
//! that runs one item on its own thread while the worker sleeps on: the
//! worker takes nothing until the [`Turn`] comes back, so running workers
//! plus lent turns never pass the worker count.

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
    /// Workers parked in [`FairQueue::pop`].
    idle: usize,
    /// Turns of parked workers lent out by [`FairQueue::lend`].
    lent: usize,
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
        let state =
            Mutex::new(State { lanes, ring, len: 0, peak: 0, closed: false, idle: 0, lent: 0 });
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
    /// the queue is empty or every free turn is lent out; `None` once the
    /// queue is closed and empty.
    pub fn pop(&self) -> Option<T> {
        let mut state = lock_clean(&self.state);
        loop {
            let State { lanes, ring, len, closed, idle, lent, .. } = &mut *state;
            // Counted out of `idle`, this worker may run only if the parked
            // ones cover every lent turn.
            let next = if *lent <= *idle { ring.pop_front() } else { None };
            if let Some(lane) = next {
                let Some(queue) = lanes.get_mut(&lane) else { continue };
                let Some(item) = queue.pop_front() else { continue };
                if queue.is_empty() {
                    lanes.remove(&lane);
                } else {
                    ring.push_back(lane);
                }
                *len -= 1;
                // Workers parked behind a lent turn exit once closed and empty.
                let ended = *closed && *len == 0;
                drop(state);
                self.space.notify_one();
                if ended {
                    self.ready.notify_all();
                }
                return Some(item);
            }
            if *closed && *len == 0 {
                return None;
            }
            *idle += 1;
            state = self.ready.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
            state.idle -= 1;
        }
    }

    /// Lends a parked worker's turn to the caller, who runs one item on its
    /// own thread and gives the turn back by dropping the [`Turn`]. Only an
    /// open, empty queue with more parked workers than lent turns lends;
    /// what is pushed meanwhile waits for one lent item at most.
    pub fn lend(&self) -> Option<Turn<'_, T>> {
        let mut state = lock_clean(&self.state);
        if state.closed || state.len > 0 || state.lent >= state.idle {
            return None;
        }
        state.lent += 1;
        Some(Turn { queue: self })
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

/// A parked worker's turn, lent by [`FairQueue::lend`]. Dropping it —
/// unwinding included — gives the turn back and wakes a worker for
/// anything queued meanwhile.
pub struct Turn<'a, T> {
    queue: &'a FairQueue<T>,
}

impl<T> Drop for Turn<'_, T> {
    fn drop(&mut self) {
        let mut state = lock_clean(&self.queue.state);
        state.lent -= 1;
        let queued = state.len > 0;
        drop(state);
        if queued {
            self.queue.ready.notify_one();
        }
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

    /// Waits until `workers` poppers are parked, failing after [`LIVENESS`].
    fn await_parked(queue: &FairQueue<u32>, workers: usize) {
        let deadline = std::time::Instant::now() + LIVENESS;
        while lock_clean(&queue.state).idle < workers {
            assert!(std::time::Instant::now() < deadline, "{workers} pop(s) never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn only_an_open_empty_queue_with_a_parked_worker_lends() {
        let queue = Arc::new(FairQueue::new(0));
        assert!(queue.lend().is_none(), "no parked worker, no turn to lend");
        let popped = parked_pop(&queue);
        await_parked(&queue, 1);
        let turn = queue.lend().expect("a parked worker's turn");
        assert!(queue.lend().is_none(), "one parked worker lends one turn");
        drop(turn);
        assert!(queue.lend().is_some(), "a turn given back can be lent again");
        queue.close();
        assert!(queue.lend().is_none(), "a closed queue lends nothing");
        assert_eq!(popped.recv_timeout(LIVENESS), Ok(None));

        // A queued item is owed the parked worker's turn: counting a parked
        // worker by hand, a non-empty queue still lends nothing.
        let queue = FairQueue::new(0);
        queue.push(1, usize::MAX, 9, false).expect("room");
        lock_clean(&queue.state).idle = 1;
        assert!(queue.lend().is_none(), "a non-empty queue lends nothing");
    }

    #[test]
    fn a_worker_whose_turn_is_lent_waits_for_the_give_back() {
        let queue = Arc::new(FairQueue::new(0));
        let popped = parked_pop(&queue);
        await_parked(&queue, 1);
        let turn = queue.lend().expect("a parked worker's turn");
        queue.push(3, usize::MAX, 42, false).expect("room");
        assert!(popped.recv_timeout(PARKED).is_err(), "the worker took an item in a lent turn");
        assert_eq!(queue.depths().0, 1);
        drop(turn);
        assert_eq!(popped.recv_timeout(LIVENESS), Ok(Some(42)), "the give-back must wake it");
    }

    #[test]
    fn close_while_a_turn_is_lent_still_runs_the_queued_items() {
        let queue = Arc::new(FairQueue::new(0));
        let (tx, rx) = mpsc::channel();
        {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                while let Some(item) = queue.pop() {
                    let _ = tx.send(Some(item));
                }
                let _ = tx.send(None);
            });
        }
        await_parked(&queue, 1);
        let turn = queue.lend().expect("a parked worker's turn");
        queue.push(1, usize::MAX, 1, false).expect("room");
        queue.push(2, usize::MAX, 2, false).expect("room");
        queue.close();
        assert!(rx.recv_timeout(PARKED).is_err(), "the worker ran in a lent turn");
        assert!(queue.lend().is_none(), "a closed queue lends nothing");
        drop(turn);
        let drained: Vec<Option<u32>> =
            (0..3).filter_map(|_| rx.recv_timeout(LIVENESS).ok()).collect();
        assert_eq!(drained, vec![Some(1), Some(2), None]);
    }

    /// Two workers, one turn lent: the free worker runs both items of a
    /// queue closed meanwhile, and the other, parked behind the lent turn,
    /// exits once the closed queue is empty, turn still lent.
    #[test]
    fn a_worker_parked_behind_a_lent_turn_exits_when_the_closed_queue_empties() {
        let queue = Arc::new(FairQueue::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let go_rx = Arc::new(Mutex::new(go_rx));
        for _ in 0..2 {
            let (queue, done_tx, go_rx) = (Arc::clone(&queue), done_tx.clone(), Arc::clone(&go_rx));
            std::thread::spawn(move || {
                while let Some(item) = queue.pop() {
                    let _ = done_tx.send(Some(item));
                    // Holds the item until the test lets it finish.
                    let _ = lock_clean(&go_rx).recv_timeout(LIVENESS);
                }
                let _ = done_tx.send(None);
            });
        }
        await_parked(&queue, 2);
        let turn = queue.lend().expect("a parked worker's turn");
        queue.push(1, usize::MAX, 1, false).expect("room");
        assert_eq!(done_rx.recv_timeout(LIVENESS), Ok(Some(1)), "one turn is free");
        queue.push(1, usize::MAX, 2, false).expect("room");
        queue.close();
        assert!(done_rx.recv_timeout(PARKED).is_err(), "the second item ran in a lent turn");
        go_tx.send(()).expect("worker alive");
        go_tx.send(()).expect("worker alive");
        let mut ends: Vec<Option<u32>> =
            (0..3).filter_map(|_| done_rx.recv_timeout(LIVENESS).ok()).collect();
        ends.sort_unstable();
        assert_eq!(ends, vec![None, None, Some(2)], "a worker stayed parked on a finished queue");
        drop(turn);
    }

    /// `W` workers and `K` submitters; each submitter runs an item itself
    /// in a lent turn when it gets one and pushes it otherwise. Thousands
    /// of items later, no more than `W` ever ran at once and every item ran.
    #[test]
    fn running_workers_plus_lent_turns_never_pass_the_worker_count() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        const W: usize = 3;
        const K: usize = 4;
        const ITEMS: usize = 2_000;
        let queue = Arc::new(FairQueue::new(0));
        let (running, peak, done) = (
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicUsize::new(0)),
        );
        let run = {
            let (running, peak, done) =
                (Arc::clone(&running), Arc::clone(&peak), Arc::clone(&done));
            move || {
                peak.fetch_max(running.fetch_add(1, SeqCst) + 1, SeqCst);
                std::thread::yield_now();
                running.fetch_sub(1, SeqCst);
                done.fetch_add(1, SeqCst);
            }
        };
        let workers: Vec<_> = (0..W)
            .map(|_| {
                let (queue, run) = (Arc::clone(&queue), run.clone());
                std::thread::spawn(move || {
                    while queue.pop().is_some() {
                        run();
                    }
                })
            })
            .collect();
        let submitters: Vec<_> = (0..K as u64)
            .map(|lane| {
                let (queue, run) = (Arc::clone(&queue), run.clone());
                std::thread::spawn(move || {
                    let mut lent = 0;
                    for item in 0..(ITEMS / K) as u32 {
                        if let Some(_turn) = queue.lend() {
                            run();
                            lent += 1;
                        } else {
                            let _ = queue.push(lane, usize::MAX, item, true);
                        }
                    }
                    lent
                })
            })
            .collect();
        let lent: usize = submitters.into_iter().map(|s| s.join().expect("submitter")).sum();
        queue.close();
        for worker in workers {
            worker.join().expect("worker");
        }
        assert_eq!(done.load(SeqCst), ITEMS, "every item ran once");
        assert!(peak.load(SeqCst) <= W, "{} ran at once on {W} workers", peak.load(SeqCst));
        assert!(lent > 0 && lent < ITEMS, "both paths ran: {lent} of {ITEMS} in lent turns");
    }
}
