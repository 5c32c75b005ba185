//! Structured failure taxonomy for the fallible executor entry points.
//!
//! The original executors joined their workers with
//! `.expect("shard worker panicked")` — a worker panic killed the whole
//! process, and a *second* worker panicking while the first join was
//! unwinding could escalate to a double-panic abort. The fallible
//! variants ([`ShardPlan::try_run_segments`](crate::ShardPlan::try_run_segments),
//! [`ShardPlan::map_slots_isolated`](crate::ShardPlan::map_slots_isolated))
//! instead catch every worker's unwind, join **all** workers, and
//! report the failure as a value:
//!
//! * [`ExecError`] is the run-level verdict: the whole call failed
//!   because a worker panicked ([`ExecError::WorkerPanic`]).
//! * [`ItemFault`] is the item-level verdict used by the isolated
//!   mapper: one slot's work errored or panicked while every other
//!   slot's result survives, byte-identical to the sequential map.
//!
//! The infallible entry points keep their contract by *re-raising* the
//! original panic payload (`resume_unwind`) after all workers joined —
//! so existing callers observe the same panic, minus the abort hazard.

use std::any::Any;
use std::error::Error;
use std::fmt;

/// A fallible executor run failed as a whole.
///
/// Reported by [`ShardPlan::try_run_segments`](crate::ShardPlan::try_run_segments);
/// when several workers fail in one run the lowest-indexed failed
/// shard is reported, deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// A worker panicked while processing its shard.
    WorkerPanic {
        /// Index of the shard whose work panicked — the lowest such
        /// index when several failed.
        shard: usize,
        /// The panic payload rendered as a string (`&str` and `String`
        /// payloads verbatim; anything else a placeholder).
        payload: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorkerPanic { shard, payload } => {
                write!(f, "worker panicked in shard {shard}: {payload}")
            }
        }
    }
}

impl Error for ExecError {}

/// One item's failure under
/// [`ShardPlan::map_slots_isolated`](crate::ShardPlan::map_slots_isolated):
/// the item's work returned an error or panicked, without taking the
/// run (or any other item's slot) down with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemFault<E> {
    /// The item's work closure returned an error.
    Error(E),
    /// The item's work closure panicked; the worker's scratch state was
    /// rebuilt before the next item so surviving slots stay
    /// byte-identical to the sequential map.
    Panic {
        /// The panic payload rendered as a string.
        payload: String,
    },
}

impl<E: fmt::Display> fmt::Display for ItemFault<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemFault::Error(error) => write!(f, "item error: {error}"),
            ItemFault::Panic { payload } => write!(f, "item panicked: {payload}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> Error for ItemFault<E> {}

/// Renders a caught panic payload as a string: `&str` and `String`
/// payloads pass through verbatim, anything else becomes a placeholder
/// (payload types are erased to `Box<dyn Any>` by `catch_unwind`).
pub fn panic_payload(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_payloads_render_strings_verbatim() {
        let boxed: Box<dyn Any + Send> = Box::new("static message");
        assert_eq!(panic_payload(boxed.as_ref()), "static message");
        let boxed: Box<dyn Any + Send> = Box::new(String::from("owned message"));
        assert_eq!(panic_payload(boxed.as_ref()), "owned message");
        let boxed: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_payload(boxed.as_ref()), "non-string panic payload");
    }

    #[test]
    fn errors_format_for_logs() {
        let error = ExecError::WorkerPanic {
            shard: 3,
            payload: "boom".to_string(),
        };
        assert!(error.to_string().contains("shard 3"));
        assert!(error.to_string().contains("boom"));
        let fault: ItemFault<String> = ItemFault::Panic {
            payload: "ouch".into(),
        };
        assert!(fault.to_string().contains("ouch"));
    }
}
