//! The four workloads, their sizes, and the pieces every run shares: the
//! timed set-up, the round loop, and the outcome a run reports.

use tracekit::wall::Stopwatch;
use unisem_workloads::QaCategory;

use crate::calibrate::Calibrator;
use crate::metrics::Values;
use crate::stats;

/// What one timed operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One `answer()` call, or with `batch > 1` one `answer_batch()` call of
    /// that many questions; categories cycle through `mix`.
    Answers { mix: &'static [QaCategory], batch: usize },
    /// One `ingest_delta()` call; a read follows every five.
    Ingest,
}

/// Sizes of one workload at one scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Products in the corpus.
    pub products: usize,
    /// Timed operations per round; for [`Shape::Ingest`], rotations of five
    /// deltas and one read.
    pub per_round: usize,
    /// Timed rounds a run makes at least, however short `--seconds` is.
    pub min_rounds: usize,
    /// Cold set-ups timed; `setup_s` is the median of the undisturbed ones.
    pub setups: usize,
    /// Rotations per round of the traced ingest replay (three rounds).
    pub traced_rotations: usize,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    /// The measured scale.
    pub full: Scale,
}

/// Corpus of the QA workloads: the largest on which the generator's 400
/// product names are all distinct. Beyond it names repeat, gold totals no
/// longer describe the tables (aggregate accuracy is 0 of 100 at 1024
/// products), and `answer_accuracy` would guard nothing.
const QA_PRODUCTS: usize = 400;

/// Corpus of the ingest workload: a delta costs time in proportion to the
/// corpus (whole substrates are cloned), and at this size a round of 100
/// deltas and 20 reads still fits ten times into a run.
const INGEST_PRODUCTS: usize = 256;

const fn qa_scale(per_round: usize) -> Scale {
    Scale { products: QA_PRODUCTS, per_round, min_rounds: 10, setups: 9, traced_rotations: 5 }
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "structured_qa",
        shape: Shape::Answers {
            mix: &[QaCategory::Aggregate, QaCategory::MultiEntityFilter, QaCategory::Comparative],
            batch: 1,
        },
        full: qa_scale(600),
    },
    Spec {
        name: "retrieval_qa",
        shape: Shape::Answers {
            // 30 % lookup, 50 % cross-modal, 20 % unanswerable. Lookups are
            // about half as slow as cross-modal questions; with equal shares
            // the median sat on the gap between the two and jumped from
            // 1.0 to 1.3 ms between runs of one seed at equal throughput.
            // With these shares it falls inside the cross-modal mode.
            mix: &[
                QaCategory::SingleEntityLookup,
                QaCategory::CrossModal,
                QaCategory::CrossModal,
                QaCategory::SingleEntityLookup,
                QaCategory::CrossModal,
                QaCategory::Unanswerable,
                QaCategory::SingleEntityLookup,
                QaCategory::CrossModal,
                QaCategory::CrossModal,
                QaCategory::Unanswerable,
            ],
            batch: 1,
        },
        full: qa_scale(400),
    },
    Spec {
        name: "mixed_batch",
        shape: Shape::Answers { mix: &QaCategory::ALL, batch: 8 },
        full: qa_scale(100),
    },
    Spec {
        name: "ingest_stream",
        shape: Shape::Ingest,
        full: Scale {
            products: INGEST_PRODUCTS,
            per_round: 20,
            min_rounds: 10,
            setups: 9,
            traced_rotations: 20,
        },
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|s| s.name == name)
    }

    /// The `--check` scale: the same shape on a 32-product corpus, two
    /// short rounds, one set-up.
    pub fn check_scale(&self) -> Scale {
        let per_round = match self.shape {
            Shape::Answers { batch, .. } => 48 / batch,
            Shape::Ingest => 3,
        };
        Scale { products: 32, per_round, min_rounds: 2, setups: 1, traced_rotations: 2 }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations and checked reads).
    pub attempted: u64,
    /// Operations that failed: an `Err`, a caught panic, an answer that
    /// differs from its reference, a read that missed its writes.
    pub failed: u64,
    /// Output checks outside the operation loop that failed, one line each.
    pub broken: Vec<String>,
    pub metrics: Values,
    /// Lines for the human reader: sample counts and check results.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    /// Records a check outside the operation loop.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }
}

/// Hundredths of a second, summed over this VM's CPUs, during which a CPU
/// was runnable but the hypervisor ran something else (`steal` in
/// `/proc/stat`); 0 where the kernel does not say.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|ticks| ticks.parse().ok()).unwrap_or(0)
}

/// A timed interval counts as disturbed when more than this share of its
/// wall time was stolen from the VM.
const QUIET_STEAL_SHARE: f64 = 0.01;

/// True when at most [`QUIET_STEAL_SHARE`] of `wall_ns` was stolen.
pub fn is_quiet(steal_ticks: u64, wall_ns: u64) -> bool {
    steal_ticks as f64 * 1e7 <= wall_ns as f64 * QUIET_STEAL_SHARE
}

/// The samples to report from `(steal_ticks, wall_ns)` intervals: every
/// quiet one, topped up to `min_kept` with the least-stolen of the rest.
/// Returned as indices in time order.
///
/// On this shared VM the hypervisor takes the CPU away for seconds at a
/// time (a 600-answer round that takes 1.0 s undisturbed took 1.6 s with
/// 0.55 s stolen and 2.6 s with 1.9 s stolen). Those rounds measure the
/// neighbours, not the engine; the kernel reports exactly which they are.
pub fn quiet_indices(intervals: &[(u64, u64)], min_kept: usize) -> Vec<usize> {
    let disturbed = |i: usize| !is_quiet(intervals[i].0, intervals[i].1);
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&i| (disturbed(i), intervals[i].0, i));
    let quiet = order.iter().filter(|&&i| !disturbed(i)).count();
    order.truncate(quiet.max(min_kept));
    order.sort_unstable();
    order
}

/// Set-ups kept at least, so the median is not one sample.
const MIN_SETUPS_KEPT: usize = 3;

/// Runs `setup` `n` times, dropping each product before the next run so all
/// start cold, sets `setup_s` to the median time of the undisturbed runs at
/// nominal machine speed, and returns the last product. `setup` times
/// itself, so it can leave work untimed.
pub fn median_setup<T>(n: usize, out: &mut Outcome, mut setup: impl FnMut() -> (T, u64)) -> T {
    assert!(n >= 1, "at least one set-up");
    let mut cal = Calibrator::new();
    let mut intervals = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        cal.sample();
        let before = steal_ticks();
        let (product, ns) = setup();
        intervals.push((steal_ticks().saturating_sub(before), ns));
        last = Some(product);
    }
    cal.sample();
    let kept = quiet_indices(&intervals, MIN_SETUPS_KEPT);
    let times: Vec<f64> = kept.iter().map(|&i| intervals[i].1 as f64 / 1e9).collect();
    let measured = stats::median(&times).expect("n >= 1");
    out.metrics.set("setup_s", measured * cal.factor());
    out.notes.push(format!(
        "setup_s: median of the {} undisturbed of {n} set-ups, {measured:.4} s as measured × {:.4} (machine speed)",
        kept.len(),
        cal.factor()
    ));
    last.expect("n >= 1")
}

/// Latencies and wall time of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Nanoseconds of each timed operation.
    pub op_ns: Vec<u64>,
    /// Nanoseconds of each interleaved read (ingest only).
    pub read_ns: Vec<u64>,
    /// Wall time of the whole round.
    pub wall_ns: u64,
    /// Failed operations.
    pub failed: u64,
    /// [`steal_ticks`] that passed during the round; set by [`run_rounds`].
    pub steal_ticks: u64,
}

/// Every timed round of a run.
#[derive(Debug)]
pub struct Rounds {
    pub rounds: Vec<Round>,
    /// Measured time × this = time at nominal machine speed
    /// ([`Calibrator::factor`] over the samples taken between rounds).
    pub speed_factor: f64,
}

/// Runs rounds for `seconds`: at least `min_rounds`, then on until the round
/// boundary nearest to the budget. Every round does the same work, so the
/// budget changes how many samples a run has, never what one sample is.
pub fn run_rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut() -> Round) -> Rounds {
    let clock = Stopwatch::start();
    let mut cal = Calibrator::new();
    let mut all = Vec::new();
    loop {
        cal.sample();
        let before = steal_ticks();
        let mut r = round();
        r.steal_ticks = steal_ticks().saturating_sub(before);
        all.push(r);
        let elapsed = clock.elapsed_ns() as f64 / 1e9;
        let half_round = elapsed / all.len() as f64 / 2.0;
        if all.len() >= min_rounds && elapsed + half_round >= seconds {
            cal.sample();
            return Rounds { rounds: all, speed_factor: cal.factor() };
        }
    }
}

/// Rounds kept at least, so a median over rounds is not a few samples.
const MIN_ROUNDS_KEPT: usize = 5;

/// The tail reported: each round's 95th percentile, then the median over
/// rounds. The pooled p99 the issue proposed was measured first: on
/// `ingest_stream`, where a handful of slow fsyncs decide it, it moved 18 %
/// (interquartile) between six runs of one seed, this one 5 %.
const TAIL_PCT: f64 = 95.0;

impl Rounds {
    /// Operations and reads attempted over all rounds, disturbed or not:
    /// correctness does not depend on the neighbours.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| (r.op_ns.len() + r.read_ns.len()) as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    /// Sets the latency and throughput metrics from the undisturbed rounds
    /// (topped up to [`MIN_ROUNDS_KEPT`]) and notes the sample counts.
    /// `per_round` is the number of operations one round's wall time
    /// covers. Reads timed apart from the operations get their own median;
    /// where the operation is the read, `read_p50_ms` repeats `op_p50_ms`
    /// so the two kinds of workload can be compared.
    pub fn report(&self, per_round: usize, out: &mut Outcome) {
        let intervals: Vec<(u64, u64)> =
            self.rounds.iter().map(|r| (r.steal_ticks, r.wall_ns)).collect();
        let kept: Vec<&Round> = quiet_indices(&intervals, MIN_ROUNDS_KEPT)
            .into_iter()
            .map(|i| &self.rounds[i])
            .collect();
        let op_ns: Vec<u64> = kept.iter().flat_map(|r| r.op_ns.iter().copied()).collect();
        let read_ns: Vec<u64> = kept.iter().flat_map(|r| r.read_ns.iter().copied()).collect();
        let wall_ns: Vec<u64> = kept.iter().map(|r| r.wall_ns).collect();

        // Milliseconds at nominal machine speed.
        let scaled_ms = |ns: u64| stats::ms(ns) * self.speed_factor;
        let p50 = stats::percentile(&op_ns, 50.0).expect("at least one round ran");
        out.metrics.set("op_p50_ms", scaled_ms(p50));
        if stats::tail_percentile(&op_ns, TAIL_PCT).is_some() {
            let round_tails: Vec<f64> = kept
                .iter()
                .map(|r| stats::percentile(&r.op_ns, TAIL_PCT).expect("rounds have operations"))
                .map(scaled_ms)
                .collect();
            let tail = stats::median(&round_tails).expect("at least one round ran");
            out.metrics.set("op_tail_ms", tail);
        } else {
            // Too few samples for a tail: report the maximum under its name
            // and say so. Only `--check` runs are this short.
            let max = *op_ns.iter().max().expect("at least one round ran");
            out.metrics.set("op_tail_ms", scaled_ms(max));
            out.notes.push(format!(
                "op_tail_ms: p{TAIL_PCT} refused with {} samples (fewer than {} beyond it); maximum shown",
                op_ns.len(),
                stats::MIN_BEYOND_TAIL
            ));
        }
        let rate = stats::median_rate(per_round, &wall_ns).expect("at least one round ran");
        out.metrics.set("ops_per_s", rate / self.speed_factor);
        let read_p50 = stats::percentile(&read_ns, 50.0).unwrap_or(p50);
        out.metrics.set("read_p50_ms", scaled_ms(read_p50));

        let stolen_kept: u64 = kept.iter().map(|r| r.steal_ticks).sum();
        let stolen_all: u64 = self.rounds.iter().map(|r| r.steal_ticks).sum();
        out.notes.push(format!(
            "samples: {} timed ops{} from {} of {} rounds of {per_round} (op_p50_ms pooled; op_tail_ms and \
             ops_per_s = median over rounds of the round's p{TAIL_PCT} and rate); stolen CPU: {} ms in the \
             rounds kept, {} ms in all; as measured op_p50 {:.4} ms and {rate:.2} ops/s, × {:.4} and ÷ {:.4} \
             (machine speed)",
            op_ns.len(),
            if read_ns.is_empty() { String::new() } else { format!(" + {} interleaved reads", read_ns.len()) },
            kept.len(),
            self.rounds.len(),
            stolen_kept * 10,
            stolen_all * 10,
            stats::ms(p50),
            self.speed_factor,
            self.speed_factor,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECOND: u64 = 1_000_000_000;

    #[test]
    fn quiet_rounds_are_kept_and_disturbed_ones_only_top_up() {
        // A tick is 10 ms: one tick in a second is 1 %, still quiet.
        assert!(is_quiet(0, SECOND));
        assert!(is_quiet(1, SECOND));
        assert!(!is_quiet(2, SECOND));

        let intervals =
            [(0, SECOND), (55, SECOND), (1, SECOND), (7, SECOND), (0, SECOND), (3, SECOND)];
        // Enough quiet rounds: only they are kept, in time order.
        assert_eq!(quiet_indices(&intervals, 3), vec![0, 2, 4]);
        // Five wanted: the two least-stolen disturbed rounds join.
        assert_eq!(quiet_indices(&intervals, 5), vec![0, 2, 3, 4, 5]);
        // No steal reported (another kernel): everything is kept.
        let silent = [(0, SECOND); 4];
        assert_eq!(quiet_indices(&silent, 0), vec![0, 1, 2, 3]);
        // All disturbed: the least stolen are used rather than nothing.
        let noisy = [(9, SECOND), (4, SECOND), (6, SECOND)];
        assert_eq!(quiet_indices(&noisy, 2), vec![1, 2]);
    }

    #[test]
    fn report_ignores_disturbed_rounds_but_counts_their_failures() {
        let round = |ns: u64, steal_ticks: u64, failed: u64| Round {
            op_ns: vec![ns; 500],
            read_ns: Vec::new(),
            wall_ns: 500 * ns,
            failed,
            steal_ticks,
        };
        // 1 ms operations; one round of 3 ms operations while 2 s were stolen.
        let mut all: Vec<Round> = (0..MIN_ROUNDS_KEPT).map(|_| round(1_000_000, 0, 0)).collect();
        all.insert(1, round(3_000_000, 200, 2));
        let rounds = Rounds { rounds: all, speed_factor: 1.0 };
        let mut out = Outcome::default();
        rounds.report(500, &mut out);
        assert_eq!(out.metrics.get("op_p50_ms"), Some(1.0));
        assert_eq!(out.metrics.get("op_tail_ms"), Some(1.0));
        assert_eq!(out.metrics.get("ops_per_s"), Some(1000.0));
        assert_eq!(out.metrics.get("read_p50_ms"), Some(1.0));
        assert_eq!((rounds.attempted(), rounds.failed()), (3000, 2));

        // Too few quiet rounds: the disturbed one is used rather than nothing.
        // A machine at half speed: times halve, rates double.
        let few = Rounds {
            rounds: vec![round(1_000_000, 0, 0), round(3_000_000, 200, 0)],
            speed_factor: 0.5,
        };
        let mut out = Outcome::default();
        few.report(500, &mut out);
        assert_eq!(out.metrics.get("op_tail_ms"), Some(1.0));
        let rate = out.metrics.get("ops_per_s").expect("set");
        assert!((rate - (1000.0 + 1000.0 / 3.0) / 2.0 / 0.5).abs() < 1e-6, "{rate}");
    }
}
