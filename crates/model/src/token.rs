//! Token accounting for simulated foundation-model calls.
//!
//! The paper's optimizer trades "query accuracy and token cost subject to
//! constraints" (§1). Real dollars are replaced by a deterministic meter:
//! tokens ≈ words × 4/3, charged per call, shared between all agents of one
//! query so the cost model sees a single budget.

use parking_lot::Mutex;
use std::sync::Arc;

/// Cumulative token usage, cheaply cloneable and shared across agents.
#[derive(Debug, Clone, Default)]
pub struct TokenMeter {
    inner: Arc<Mutex<Usage>>,
}

/// A usage snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Tokens sent as prompts.
    pub prompt_tokens: u64,
    /// Tokens generated.
    pub completion_tokens: u64,
    /// Number of model invocations.
    pub calls: u64,
}

impl Usage {
    /// Total tokens in both directions.
    pub fn total(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }
}

/// Approximate token count of a text (≈ 4/3 per whitespace word, the usual
/// English rule of thumb).
pub fn approx_tokens(text: &str) -> u64 {
    let words = text.split_whitespace().count() as u64;
    words + words / 3
}

impl TokenMeter {
    /// A fresh meter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one model call with the given prompt/completion texts. The
    /// texts are counted before the lock is taken: workers scoring rows
    /// side by side hold it for three additions, not for a pass over a plot.
    pub fn charge(&self, prompt: &str, completion: &str) {
        self.charge_raw(approx_tokens(prompt), approx_tokens(completion));
    }

    /// Charges raw token counts (used by vision calls where the "prompt" is
    /// an image: flat per-image cost).
    pub fn charge_raw(&self, prompt_tokens: u64, completion_tokens: u64) {
        let mut u = self.inner.lock();
        u.prompt_tokens += prompt_tokens;
        u.completion_tokens += completion_tokens;
        u.calls += 1;
    }

    /// Current snapshot.
    pub fn usage(&self) -> Usage {
        *self.inner.lock()
    }

    /// Resets to zero (between benchmark runs).
    pub fn reset(&self) {
        *self.inner.lock() = Usage::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_is_shared() {
        let m = TokenMeter::new();
        let m2 = m.clone();
        m.charge("four words in prompt", "two words");
        m2.charge_raw(100, 10);
        let u = m.usage();
        assert_eq!(u.calls, 2);
        assert_eq!(u.prompt_tokens, (4 + 4 / 3) + 100);
        assert_eq!(u.completion_tokens, 2 + 10);
    }

    #[test]
    fn approx_tokens_rule() {
        assert_eq!(approx_tokens(""), 0);
        assert_eq!(approx_tokens("one two three"), 4); // 3 + 1
        assert_eq!(approx_tokens("w1 w2 w3 w4 w5 w6"), 8); // 6 + 2
    }

    #[test]
    fn reset_zeroes() {
        let m = TokenMeter::new();
        m.charge_raw(5, 5);
        m.reset();
        assert_eq!(m.usage(), Usage::default());
    }

    #[test]
    fn total_sums_directions() {
        let u = Usage {
            prompt_tokens: 7,
            completion_tokens: 3,
            calls: 1,
        };
        assert_eq!(u.total(), 10);
    }
}
