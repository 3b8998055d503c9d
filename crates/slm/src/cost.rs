//! Inference cost model and usage metering.
//!
//! §I of the paper motivates SLMs with resource constraints: "LLM-based
//! methods … demand substantial computational resources … impractical for
//! applications requiring low-latency responses or deployment on devices
//! with limited memory". To *measure* that trade-off (experiment E8) rather
//! than assert it, every simulated model call is charged to a [`CostMeter`],
//! and a [`CostModel`] converts token counts into simulated latency, memory,
//! and energy figures.
//!
//! The constants are calibrated to public inference numbers circa 2024-2025:
//! a ~1.8B-parameter SLM served on a laptop/edge CPU-GPU versus a
//! ~70B-parameter LLM served on a datacenter A100-class GPU. Absolute values
//! matter less than the ~20–40× throughput gap, which is what the
//! efficiency experiments exercise.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Which model scale a cost model describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelClass {
    /// Small language model (~1–3B parameters, edge-deployable).
    SlmClass,
    /// Large language model (~70B parameters, datacenter-served).
    LlmClass,
}

/// Token-level cost constants for one model class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Parameter count in billions (drives memory footprint).
    pub params_b: f64,
    /// Prefill (prompt ingestion) throughput, tokens/second.
    pub prefill_tps: f64,
    /// Decode (generation) throughput, tokens/second.
    pub decode_tps: f64,
    /// Resident memory for weights + KV cache, gigabytes.
    pub memory_gb: f64,
    /// Energy per processed token, joules.
    pub energy_j_per_token: f64,
}

impl CostModel {
    /// The calibrated constants for a model class.
    pub fn for_class(class: ModelClass) -> Self {
        match class {
            // ~1.8B model, int8, on an edge device (MobileLLM-class, [5] in
            // the paper's references).
            ModelClass::SlmClass => Self {
                params_b: 1.8,
                prefill_tps: 2400.0,
                decode_tps: 140.0,
                memory_gb: 2.2,
                energy_j_per_token: 0.04,
            },
            // ~70B model, fp16, on an A100-class accelerator.
            ModelClass::LlmClass => Self {
                params_b: 70.0,
                prefill_tps: 6000.0,
                decode_tps: 35.0,
                memory_gb: 145.0,
                energy_j_per_token: 1.1,
            },
        }
    }

    /// Simulated wall-clock seconds for a call with the given token counts.
    ///
    /// Embedding/tagging passes are prefill-only; generation adds decode.
    pub fn latency_secs(&self, prefill_tokens: usize, decode_tokens: usize) -> f64 {
        prefill_tokens as f64 / self.prefill_tps + decode_tokens as f64 / self.decode_tps
    }

    /// Simulated energy in joules for the given token counts.
    pub fn energy_joules(&self, total_tokens: usize) -> f64 {
        total_tokens as f64 * self.energy_j_per_token
    }
}

/// An immutable snapshot of accumulated usage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UsageSnapshot {
    /// Tokens processed by embedding passes.
    pub embed_tokens: usize,
    /// Tokens processed by entity-tagging passes.
    pub tag_tokens: usize,
    /// Prompt (prefill) tokens across generation calls.
    pub prompt_tokens: usize,
    /// Generated (decode) tokens across generation calls.
    pub decode_tokens: usize,
    /// Number of embedding calls.
    pub embed_calls: usize,
    /// Number of tagging calls.
    pub tag_calls: usize,
    /// Number of generation calls.
    pub generate_calls: usize,
}

impl UsageSnapshot {
    /// All tokens that passed through the model.
    pub fn total_tokens(&self) -> usize {
        self.embed_tokens + self.tag_tokens + self.prompt_tokens + self.decode_tokens
    }
}

/// Usage ledger shared by all components of one pipeline: tokens and calls,
/// which a [`CostModel`] prices. One atomic per [`UsageSnapshot`] count, in
/// field order, relaxed since it guards no other data: no lock, but a snapshot
/// taken while calls are in flight may split one call's token and call counts.
#[derive(Debug, Clone, Default)]
pub struct CostMeter {
    counts: Arc<[AtomicUsize; 7]>,
}

impl CostMeter {
    /// Records an embedding pass over `tokens`.
    pub fn record_embed(&self, tokens: usize) {
        self.add([tokens, 0, 0, 0, 1, 0, 0]);
    }

    /// Records a tagging pass over `tokens`.
    pub fn record_tag(&self, tokens: usize) {
        self.add([0, tokens, 0, 0, 0, 1, 0]);
    }

    /// Records a generation call.
    pub fn record_generate(&self, prompt_tokens: usize, decode_tokens: usize) {
        self.add([0, 0, prompt_tokens, decode_tokens, 0, 0, 1]);
    }

    fn add(&self, usage: [usize; 7]) {
        for (count, n) in self.counts.iter().zip(usage).filter(|&(_, n)| n > 0) {
            count.fetch_add(n, Relaxed);
        }
    }

    /// Current accumulated usage.
    pub fn snapshot(&self) -> UsageSnapshot {
        self.read(|count| count.load(Relaxed))
    }

    /// Resets the ledger to zero and returns the final snapshot.
    pub fn reset(&self) -> UsageSnapshot {
        self.read(|count| count.swap(0, Relaxed))
    }

    fn read(&self, f: impl Fn(&AtomicUsize) -> usize) -> UsageSnapshot {
        let c = self.counts.each_ref().map(f);
        UsageSnapshot {
            embed_tokens: c[0],
            tag_tokens: c[1],
            prompt_tokens: c[2],
            decode_tokens: c[3],
            embed_calls: c[4],
            tag_calls: c[5],
            generate_calls: c[6],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_constants_ordered() {
        let slm = CostModel::for_class(ModelClass::SlmClass);
        let llm = CostModel::for_class(ModelClass::LlmClass);
        assert!(slm.memory_gb < llm.memory_gb);
        assert!(slm.decode_tps > llm.decode_tps);
        assert!(slm.energy_j_per_token < llm.energy_j_per_token);
    }

    #[test]
    fn latency_composition() {
        let m = CostModel::for_class(ModelClass::SlmClass);
        let prefill_only = m.latency_secs(1000, 0);
        let with_decode = m.latency_secs(1000, 100);
        assert!(with_decode > prefill_only);
        // Decode dominates: 100 decode tokens cost more than 1000 prefill.
        assert!(m.latency_secs(0, 100) > m.latency_secs(1000, 0));
    }

    #[test]
    fn meter_accumulates() {
        let m = CostMeter::default();
        m.record_embed(10);
        m.record_tag(20);
        m.record_generate(30, 5);
        let s = m.snapshot();
        assert_eq!(s.embed_tokens, 10);
        assert_eq!(s.tag_tokens, 20);
        assert_eq!(s.prompt_tokens, 30);
        assert_eq!(s.decode_tokens, 5);
        assert_eq!(s.total_tokens(), 65);
    }

    #[test]
    fn reset_returns_and_clears() {
        let m = CostMeter::default();
        m.record_embed(10);
        let s = m.reset();
        assert_eq!(s.embed_tokens, 10);
        assert_eq!(m.snapshot(), UsageSnapshot::default());
    }

    #[test]
    fn clones_share_ledger() {
        let m = CostMeter::default();
        let c = m.clone();
        c.record_tag(7);
        assert_eq!(m.snapshot().tag_tokens, 7);
    }

    #[test]
    fn slm_cheaper_than_llm_for_same_usage() {
        let slm = CostModel::for_class(ModelClass::SlmClass);
        let llm = CostModel::for_class(ModelClass::LlmClass);
        assert!(slm.latency_secs(400, 80) < llm.latency_secs(400, 80));
        assert!(slm.energy_joules(480) < llm.energy_joules(480));
    }

    #[test]
    fn concurrent_recording() {
        let m = CostMeter::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        m.record_embed(1);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().embed_tokens, 800);
        assert_eq!(m.snapshot().embed_calls, 800);
    }
}
