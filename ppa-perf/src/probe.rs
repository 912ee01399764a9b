//! Timing taken from outside the crates: every clock read goes through
//! `ppa_bench::stopwatch::Stopwatch`, around calls into public functions.
//!
//! An op's code marks where its set-up ends and its timed part begins; a
//! [`Probe`] records those two spans on every run. Per-layer spans and
//! counts are recorded only on a traced run, so an untraced op pays for
//! no clock reads beyond its own boundaries and its drive.

use ppa_bench::stopwatch::Stopwatch;

/// What one op recorded.
#[derive(Debug, Default)]
pub struct Probe {
    traced: bool,
    /// Wall seconds of the op's set-up.
    pub setup_s: f64,
    /// Wall seconds of the op's timed part.
    pub op_s: f64,
    /// Units of work the op did (engine events, or plans produced).
    pub work_units: u64,
    /// Wall seconds those units took.
    pub work_s: f64,
    /// Per-layer wall milliseconds, summed per name over the op.
    pub layers: Vec<(&'static str, f64)>,
    /// Per-layer counts and ratios of the op.
    pub counts: Vec<(&'static str, f64)>,
}

impl Probe {
    pub fn new(traced: bool) -> Self {
        Probe {
            traced,
            ..Probe::default()
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Ends the op's set-up span.
    pub fn end_setup(&mut self, span: Stopwatch) {
        self.setup_s += span.elapsed().as_secs_f64();
    }

    /// Ends the op's timed span.
    pub fn end_op(&mut self, span: Stopwatch) {
        self.op_s += span.elapsed().as_secs_f64();
    }

    /// Runs `f`; on a traced run, adds its wall time to layer `name`.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let span = Stopwatch::start();
        let out = f();
        self.add_ms(name, ms(span));
        out
    }

    /// Runs `f` and times it on every run: the work rate behind
    /// `events_per_s` needs the wall time untraced too. On a traced run
    /// the time also lands in layer `name`.
    pub fn work<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = Stopwatch::start();
        let out = f();
        let secs = span.elapsed().as_secs_f64();
        self.work_s += secs;
        if self.traced {
            self.add_ms(name, secs * 1e3);
        }
        (out, secs)
    }

    /// Counts `units` of work against the time [`Probe::work`] recorded.
    pub fn work_units(&mut self, units: u64) {
        self.work_units += units;
    }

    /// Adds `value` milliseconds to layer `name` (a traced-run derived
    /// span, such as a difference of two drives).
    pub fn add_ms(&mut self, name: &'static str, value: f64) {
        if !self.traced {
            return;
        }
        match self.layers.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.layers.push((name, value)),
        }
    }

    /// Records a count or ratio of the op (traced runs only).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.traced {
            self.counts.push((name, value));
        }
    }
}

/// Milliseconds since `span` started.
pub fn ms(span: Stopwatch) -> f64 {
    span.elapsed().as_secs_f64() * 1e3
}
