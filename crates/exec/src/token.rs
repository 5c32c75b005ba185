//! Cooperative cancellation for executor runs.
//!
//! A [`RunToken`] is a cheap, cloneable handle the caller keeps while
//! the executor runs: cancelling it makes every fallible executor entry
//! point stop at the next item or segment boundary and return a
//! deterministic [`ExecError::Cancelled`] — with clean teardown: all
//! workers are joined, no shared state is poisoned, and the caller's
//! items are exactly as the last completed boundary left them
//! (resettable and reusable for a fresh run).
//!
//! Cancellation is *cooperative*: a worker inside one item's work is
//! never interrupted mid-item, so items stay atomic and the memory
//! model's invariants hold at every observation point.

use crate::error::ExecError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cancellation handle for executor runs.
///
/// Clones share one flag: cancelling any clone cancels them all. The
/// default token never cancels — the infallible executor entry points
/// run under one, so the fallible core is the only implementation.
#[derive(Debug, Clone)]
pub struct RunToken {
    cancelled: Arc<AtomicBool>,
}

impl RunToken {
    /// A token whose cancel flag stays clear until [`RunToken::cancel`]
    /// is called.
    pub fn new() -> Self {
        RunToken {
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Requests cancellation: every boundary check from now on reports
    /// [`ExecError::Cancelled`]. Idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// The boundary check the executors run between items and
    /// segments. Cancellation is sticky: once reported, every later
    /// check reports it again.
    ///
    /// # Errors
    ///
    /// [`ExecError::Cancelled`] once [`RunToken::cancel`] was called.
    pub fn check(&self) -> Result<(), ExecError> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(ExecError::Cancelled);
        }
        Ok(())
    }
}

impl Default for RunToken {
    fn default() -> Self {
        RunToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes_checks() {
        let token = RunToken::new();
        assert_eq!(token.check(), Ok(()));
    }

    #[test]
    fn cancellation_is_shared_sticky_and_deterministic() {
        let token = RunToken::new();
        let clone = token.clone();
        clone.cancel();
        assert_eq!(token.check(), Err(ExecError::Cancelled));
        assert_eq!(token.check(), Err(ExecError::Cancelled));
    }
}
