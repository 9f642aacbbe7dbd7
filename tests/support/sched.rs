//! `Sim`: a seeded scheduler that runs sessions one at a time.
//!
//! Each session runs on a thread of its own, but only the thread holding
//! the *turn* runs. At every [`Pause`] of the shared catalog the holder
//! hands the turn to a ready thread (itself included) drawn by a xorshift
//! from one `u64`, so a seed fixes the interleaving, and a failing seed
//! replays it. Every pause is reached with no declared lock held, so the
//! thread given the turn never blocks on a lock a paused one holds. This
//! is the discipline of FoundationDB's deterministic simulation (Zhou et
//! al., SIGMOD 2021), written here from its description.
//!
//! The catalog also tells the scheduler each [`VersionEvent`]; the
//! simulator keeps them in one history, in the order they happened, with
//! the thread that caused each.

use kath_storage::{Pause, Scheduler, VersionEvent};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

thread_local! {
    /// The simulated thread this is, if any.
    static ME: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Hand-offs after which a run counts as stuck: a thread that keeps
/// pausing without the others finishing (a livelock) fails, with its seed.
const MAX_STEPS: usize = 100_000;

/// What one simulated thread runs.
pub type Job = Box<dyn FnOnce() + Send>;

/// Parked threads, reused by every run of the test binary: spawning one
/// costs more than a small schedule's statements. A job never unwinds
/// into its worker (the run catches it), so a worker lives until exit.
static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

fn worker() -> Sender<Job> {
    let idle = IDLE.lock().unwrap_or_else(|e| e.into_inner()).pop();
    idle.unwrap_or_else(|| {
        let (tx, rx) = channel::<Job>();
        std::thread::spawn(move || rx.into_iter().for_each(|job| job()));
        tx
    })
}

/// One hand-off: the thread that paused and where.
pub type Step = (usize, Pause);

/// One history entry: the simulated thread (`None` outside a run) and
/// the event.
pub type Entry = (Option<usize>, VersionEvent);

#[derive(Default)]
struct Turns {
    rng: u64,
    /// Threads waiting for the turn, in id order.
    ready: Vec<usize>,
    /// The thread holding the turn.
    turn: Option<usize>,
    /// Threads not yet at their first pause (or end).
    starting: usize,
    /// Threads whose body has ended.
    ended: usize,
    trace: Vec<Step>,
    history: Vec<Entry>,
    /// The first failure of a simulated thread, with where it stopped.
    failure: Option<String>,
}

impl Turns {
    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Gives the turn to a ready thread, once every thread has started.
    fn pass(&mut self) {
        self.turn = None;
        if self.starting == 0 && !self.ready.is_empty() {
            let i = (self.next() % self.ready.len() as u64) as usize;
            self.turn = Some(self.ready.remove(i));
        }
    }

    fn make_ready(&mut self, me: usize) {
        let at = self.ready.partition_point(|&t| t < me);
        self.ready.insert(at, me);
    }
}

/// The seeded scheduler; see the module doc.
pub struct Sim {
    seed: u64,
    turns: Mutex<Turns>,
    /// One per thread of the run: only the thread given the turn wakes.
    cvs: OnceLock<Vec<Condvar>>,
    /// Wakes the caller of [`Sim::run`] as threads end.
    ended: Condvar,
}

impl Sim {
    pub fn new(seed: u64) -> Sim {
        let turns = Turns {
            // xorshift has a fixed point at 0, which an odd state never is.
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            ..Turns::default()
        };
        Sim {
            seed,
            turns: Mutex::new(turns),
            cvs: OnceLock::new(),
            ended: Condvar::new(),
        }
    }

    fn turns(&self) -> MutexGuard<'_, Turns> {
        self.turns.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn cv(&self, thread: usize) -> &Condvar {
        &self.cvs.get().expect("a run is on")[thread]
    }

    /// Passes the turn and wakes the thread that gets it.
    fn pass(&self, t: &mut Turns) {
        t.pass();
        if let Some(next) = t.turn {
            self.cv(next).notify_one();
        }
    }

    fn await_turn(&self, mut t: MutexGuard<'_, Turns>, me: usize) {
        while t.turn != Some(me) {
            t = self.cv(me).wait(t).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Runs each body on a thread of its own, one at a time, and returns
    /// once all have ended. A body that panics ends its thread; the run
    /// then panics with the seed, the step and the hook where it stopped.
    pub fn run(self: &Arc<Self>, bodies: Vec<Job>) {
        let n = bodies.len();
        let cvs = bodies.iter().map(|_| Condvar::new()).collect();
        assert!(self.cvs.set(cvs).is_ok(), "a Sim runs once");
        self.turns().starting = n;
        let workers: Vec<Sender<Job>> = (0..n).map(|_| worker()).collect();
        for ((me, body), worker) in bodies.into_iter().enumerate().zip(&workers) {
            let sim = Arc::clone(self);
            let job: Job = Box::new(move || sim.thread(me, body));
            worker.send(job).expect("a parked worker takes jobs");
        }
        let mut t = self.turns();
        while t.ended < n {
            t = self.ended.wait(t).unwrap_or_else(|e| e.into_inner());
        }
        let failure = t.failure.take();
        drop(t);
        IDLE.lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(workers);
        if let Some(failure) = failure {
            resume_unwind(Box::new(failure));
        }
    }

    /// Simulated thread `me`: waits for every thread to start and for its
    /// turn, runs `body`, and passes the turn on when it ends.
    fn thread(&self, me: usize, body: Job) {
        ME.set(Some(me));
        let mut t = self.turns();
        t.starting -= 1;
        t.make_ready(me);
        if t.starting == 0 {
            self.pass(&mut t);
        }
        self.await_turn(t, me);
        let out = catch_unwind(AssertUnwindSafe(body));
        ME.set(None);
        let mut t = self.turns();
        if let Err(payload) = &out {
            if t.failure.is_none() {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                let at = t.trace.iter().rev().find(|(who, _)| *who == me);
                t.failure = Some(format!(
                    "{}: thread {me} stopped after hook {at:?}: {msg}",
                    self.place(t.trace.len())
                ));
            }
        }
        t.ended += 1;
        self.pass(&mut t);
        self.ended.notify_one();
    }

    /// "seed S, step N": what replays a schedule up to a point.
    pub fn place(&self, step: usize) -> String {
        format!("seed {}, step {step}", self.seed)
    }

    /// Hand-offs so far.
    pub fn step(&self) -> usize {
        self.turns().trace.len()
    }

    /// Entries in the history so far: the position of what happens next.
    pub fn now(&self) -> usize {
        self.turns().history.len()
    }

    pub fn trace(&self) -> Vec<Step> {
        self.turns().trace.clone()
    }

    pub fn history(&self) -> Vec<Entry> {
        self.turns().history.clone()
    }
}

impl Scheduler for Sim {
    fn pause(&self, at: Pause) {
        let Some(me) = ME.get() else { return };
        let mut t = self.turns();
        t.trace.push((me, at));
        if t.trace.len() > MAX_STEPS {
            drop(t);
            panic!("no end after {MAX_STEPS} hand-offs");
        }
        t.make_ready(me);
        self.pass(&mut t);
        self.await_turn(t, me);
    }

    fn record(&self, event: VersionEvent) {
        self.turns().history.push((ME.get(), event));
    }
}
