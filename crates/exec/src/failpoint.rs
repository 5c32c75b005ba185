//! Deterministic failpoint harness: named injection sites that can be
//! armed — from the [`FAILPOINTS_ENV`] environment variable or
//! programmatically ([`FailpointGuard`]) — to panic, error or delay at
//! exact, reproducible places. This is the substrate of the chaos test
//! suite: every graceful-degradation guarantee (a poisoned fleet job
//! fails alone, injected slowdown never changes results) is proved by
//! arming a failpoint and asserting the isolation held.
//!
//! # Grammar
//!
//! `ESRAM_FAILPOINTS` holds a comma-separated list of specs:
//!
//! ```text
//! site[@key=N]:action
//! ```
//!
//! * `site` — a dotted site name (`diag.segment`, `soc.build`); each
//!   instrumented call site names its own.
//! * `@key=N` — optional qualifier: the spec only fires where the site
//!   supplies a qualifier named `key` with value `N`
//!   (`diag.segment@job=3` fires only for fleet job 3). An unqualified
//!   spec fires at every hit of the site.
//! * `action` — `panic` (inject a panic whose payload carries
//!   [`INJECTED_MARKER`]), `error` (inject an [`InjectedFailure`] where
//!   the site has an error channel; sites without one escalate it to a
//!   marked panic), or `delay(ms)` (sleep that many milliseconds, then
//!   proceed — injected slowdown must never change any result, which
//!   the chaos suite asserts at several worker counts).
//!
//! # Cost when unset
//!
//! A hit at an un-armed site is two relaxed atomic loads — no parsing,
//! no locks, no allocation — so instrumented hot paths stay free in
//! production.
//!
//! # Determinism
//!
//! Whether a hit fires is a pure function of `(site, qualifiers,
//! armed specs)` — no randomness, no probabilities — so an injected
//! failure reproduces identically on every run at every worker count.

use crate::env;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Duration;

/// Environment variable holding the armed failpoint specs (parsed once
/// per process through [`env::read_knob`]: malformed values warn once
/// on stderr and disarm injection entirely rather than half-applying).
pub const FAILPOINTS_ENV: &str = "ESRAM_FAILPOINTS";

/// Marker embedded in every injected panic payload, so panic output
/// from *expected* injections can be told apart from real bugs (and
/// silenced in chaos tests via [`install_quiet_panic_hook`]).
pub const INJECTED_MARKER: &str = "[failpoint]";

/// Marker tests may embed in their own deliberate panic payloads to
/// have [`install_quiet_panic_hook`] silence the expected spew.
pub const QUIET_MARKER: &str = "[expected]";

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with an [`INJECTED_MARKER`]-carrying payload.
    Panic,
    /// Return an [`InjectedFailure`] through the site's error channel.
    Error,
    /// Sleep for the given number of milliseconds, then proceed.
    Delay(u64),
}

impl FailAction {
    fn parse(raw: &str) -> Option<FailAction> {
        let raw = raw.trim().to_ascii_lowercase();
        match raw.as_str() {
            "panic" => Some(FailAction::Panic),
            "error" => Some(FailAction::Error),
            _ => raw
                .strip_prefix("delay(")?
                .strip_suffix(')')?
                .trim()
                .parse::<u64>()
                .ok()
                .map(FailAction::Delay),
        }
    }
}

/// One parsed failpoint spec: a site, an optional `key=N` qualifier and
/// the action to take when a matching hit occurs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failpoint {
    site: String,
    qualifier: Option<(String, u64)>,
    action: FailAction,
}

impl Failpoint {
    /// Parses one `site[@key=N]:action` spec. Returns `None` on any
    /// malformed component (unknown action, non-numeric qualifier
    /// value, empty or ill-formed site name).
    pub fn parse(spec: &str) -> Option<Failpoint> {
        let (target, action) = spec.rsplit_once(':')?;
        let action = FailAction::parse(action)?;
        let (site, qualifier) = match target.split_once('@') {
            None => (target.trim(), None),
            Some((site, qualifier)) => {
                let (key, value) = qualifier.split_once('=')?;
                let key = key.trim();
                let value = value.trim().parse::<u64>().ok()?;
                if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    return None;
                }
                (site.trim(), Some((key.to_string(), value)))
            }
        };
        let site_ok = !site.is_empty()
            && site
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
        if !site_ok {
            return None;
        }
        Some(Failpoint {
            site: site.to_string(),
            qualifier,
            action,
        })
    }

    fn matches(&self, site: &str, qualifiers: &[(&str, u64)]) -> bool {
        if self.site != site {
            return false;
        }
        match &self.qualifier {
            None => true,
            Some((key, value)) => qualifiers.iter().any(|&(k, v)| k == key && v == *value),
        }
    }
}

/// A parsed set of failpoint specs (the whole [`FAILPOINTS_ENV`] value,
/// or a programmatic scenario for [`FailpointGuard`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailpointSet {
    points: Vec<Failpoint>,
}

impl FailpointSet {
    /// Parses a comma-separated spec list. Empty segments (and an
    /// all-whitespace value) are permitted and contribute nothing;
    /// any malformed spec rejects the whole value.
    pub fn parse(raw: &str) -> Option<FailpointSet> {
        let mut points = Vec::new();
        for spec in raw.split(',') {
            let spec = spec.trim();
            if spec.is_empty() {
                continue;
            }
            points.push(Failpoint::parse(spec)?);
        }
        Some(FailpointSet { points })
    }

    /// Whether the set arms no failpoint at all.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    fn action_for(&self, site: &str, qualifiers: &[(&str, u64)]) -> Option<FailAction> {
        self.points
            .iter()
            .find(|point| point.matches(site, qualifiers))
            .map(|point| point.action)
    }
}

/// The error an armed `error` action injects through a site's error
/// channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFailure {
    /// The site the failure was injected at.
    pub site: String,
}

impl std::fmt::Display for InjectedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{INJECTED_MARKER} injected error at {}", self.site)
    }
}

impl std::error::Error for InjectedFailure {}

/// Serialises programmatic scenarios: only one [`FailpointGuard`] can
/// be live at a time, so parallel tests cannot overlay each other's
/// injections.
static SCENARIO: Mutex<()> = Mutex::new(());
/// Fast flag for "a programmatic override is installed".
static OVERRIDE_ON: AtomicBool = AtomicBool::new(false);
/// The installed override (replaces the environment set entirely while
/// present — including with an empty set, which disarms everything).
static OVERRIDE: RwLock<Option<FailpointSet>> = RwLock::new(None);
/// Whether the environment armed any failpoint (computed once).
static ENV_ARMED: OnceLock<bool> = OnceLock::new();
/// The environment's parsed set (computed once, warn-once on garbage).
static ENV_SET: OnceLock<FailpointSet> = OnceLock::new();

fn env_set() -> &'static FailpointSet {
    ENV_SET.get_or_init(|| {
        let raw = std::env::var(FAILPOINTS_ENV).ok();
        env::read_knob(FAILPOINTS_ENV, raw.as_deref(), FailpointSet::parse, || {
            "no failpoints (injection disabled)".to_string()
        })
        .unwrap_or_default()
    })
}

/// Looks up the armed action for a hit of `site` with the given
/// qualifiers, without performing it. `None` when nothing matching is
/// armed — the common case, answered by two relaxed atomic loads.
pub fn evaluate(site: &str, qualifiers: &[(&str, u64)]) -> Option<FailAction> {
    if OVERRIDE_ON.load(Ordering::Relaxed) {
        let guard = OVERRIDE.read().unwrap_or_else(PoisonError::into_inner);
        return guard.as_ref().and_then(|set| set.action_for(site, qualifiers));
    }
    if !*ENV_ARMED.get_or_init(|| !env_set().is_empty()) {
        return None;
    }
    env_set().action_for(site, qualifiers)
}

/// Performs a hit of `site`: no-op when un-armed; sleeps and proceeds
/// on `delay(ms)`; panics (payload carries [`INJECTED_MARKER`]) on
/// `panic`.
///
/// # Errors
///
/// Returns [`InjectedFailure`] when an `error` action is armed for this
/// hit — the site routes it through its own error channel.
///
/// # Panics
///
/// Panics when a `panic` action is armed for this hit.
pub fn fire(site: &str, qualifiers: &[(&str, u64)]) -> Result<(), InjectedFailure> {
    match evaluate(site, qualifiers) {
        None => Ok(()),
        Some(FailAction::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Some(FailAction::Error) => Err(InjectedFailure {
            site: site.to_string(),
        }),
        Some(FailAction::Panic) => {
            panic!("{INJECTED_MARKER} injected panic at {site}")
        }
    }
}

/// [`fire`] for sites without an error channel: an armed `error` action
/// escalates to a marked panic instead of being silently dropped.
///
/// # Panics
///
/// Panics when a `panic` or `error` action is armed for this hit.
pub fn trip(site: &str, qualifiers: &[(&str, u64)]) {
    if let Err(injected) = fire(site, qualifiers) {
        panic!("{injected} (site has no error channel)");
    }
}

/// Programmatic failpoint scenario for tests: installs a set that
/// *replaces* the environment's (even an empty set, which disarms
/// everything — baselines are computed under
/// [`FailpointGuard::disabled`]), and restores the environment-driven
/// behaviour on drop. Holding the guard serialises scenarios across
/// threads, so parallel tests cannot contaminate each other.
#[derive(Debug)]
pub struct FailpointGuard {
    _scenario: MutexGuard<'static, ()>,
}

impl FailpointGuard {
    /// Installs `set` as the live failpoint scenario.
    pub fn install(set: FailpointSet) -> FailpointGuard {
        let scenario = SCENARIO.lock().unwrap_or_else(PoisonError::into_inner);
        *OVERRIDE.write().unwrap_or_else(PoisonError::into_inner) = Some(set);
        OVERRIDE_ON.store(true, Ordering::SeqCst);
        FailpointGuard { _scenario: scenario }
    }

    /// Parses and installs a spec string (same grammar as
    /// [`FAILPOINTS_ENV`]).
    ///
    /// # Panics
    ///
    /// Panics if `spec` is malformed — a test arming garbage should
    /// fail loudly, not silently run without injection.
    pub fn scenario(spec: &str) -> FailpointGuard {
        let set =
            FailpointSet::parse(spec).unwrap_or_else(|| panic!("malformed failpoint scenario {spec:?}"));
        Self::install(set)
    }

    /// Disarms every failpoint (environment included) while held — how
    /// chaos tests compute their uninjected baselines.
    pub fn disabled() -> FailpointGuard {
        Self::install(FailpointSet::default())
    }
}

impl Drop for FailpointGuard {
    fn drop(&mut self) {
        OVERRIDE_ON.store(false, Ordering::SeqCst);
        *OVERRIDE.write().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Installs (once per process) a panic hook that silences payloads
/// carrying [`INJECTED_MARKER`] or [`QUIET_MARKER`], delegating
/// everything else to the previous hook. Chaos suites call this first
/// so hundreds of *expected* injected panics do not bury a real failure
/// in spew; unexpected panics still print normally.
pub fn install_quiet_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let expected = payload
                .downcast_ref::<&str>()
                .map(|message| message.contains(INJECTED_MARKER) || message.contains(QUIET_MARKER))
                .or_else(|| {
                    payload
                        .downcast_ref::<String>()
                        .map(|message| message.contains(INJECTED_MARKER) || message.contains(QUIET_MARKER))
                })
                .unwrap_or(false);
            if !expected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_per_the_grammar() {
        let point = Failpoint::parse("diag.segment@job=3:panic").unwrap();
        assert_eq!(point.site, "diag.segment");
        assert_eq!(point.qualifier, Some(("job".to_string(), 3)));
        assert_eq!(point.action, FailAction::Panic);

        let point = Failpoint::parse("soc.build@member=7:error").unwrap();
        assert_eq!(point.action, FailAction::Error);

        let point = Failpoint::parse(" soc.build : delay( 25 ) ").unwrap();
        assert_eq!(point.site, "soc.build");
        assert_eq!(point.qualifier, None);
        assert_eq!(point.action, FailAction::Delay(25));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",                         // no site, no action
            "diag.segment",             // missing action
            "diag.segment:explode",     // unknown action
            "diag.segment@job:panic",   // qualifier without value
            "diag.segment@job=x:panic", // non-numeric qualifier
            "@job=1:panic",             // empty site
            "diag segment:panic",       // illegal site character
            "site:delay(oops)",         // non-numeric delay
            "site:delay(5",             // unbalanced parens
        ] {
            assert!(Failpoint::parse(bad).is_none(), "{bad:?} must be rejected");
        }
        // One garbage spec poisons the whole set.
        assert!(FailpointSet::parse("a.b:panic,junk").is_none());
    }

    #[test]
    fn set_parse_tolerates_empty_segments() {
        let set = FailpointSet::parse("").unwrap();
        assert!(set.is_empty());
        let set = FailpointSet::parse(" a.b:panic , , c.d@k=1:error ,").unwrap();
        assert_eq!(set.points.len(), 2);
    }

    #[test]
    fn qualifier_matching_is_exact() {
        let set = FailpointSet::parse("diag.segment@job=3:panic,soc.build:error").unwrap();
        assert_eq!(
            set.action_for("diag.segment", &[("job", 3)]),
            Some(FailAction::Panic)
        );
        assert_eq!(set.action_for("diag.segment", &[("job", 2)]), None);
        assert_eq!(set.action_for("diag.segment", &[("base", 3)]), None);
        assert_eq!(set.action_for("diag.segment", &[]), None);
        // Unqualified specs fire at every hit of the site.
        assert_eq!(
            set.action_for("soc.build", &[("member", 9)]),
            Some(FailAction::Error)
        );
        assert_eq!(set.action_for("soc.build", &[]), Some(FailAction::Error));
        assert_eq!(set.action_for("other.site", &[]), None);
    }

    #[test]
    fn guard_installs_fires_and_restores() {
        assert_eq!(fire("guard.test", &[]), Ok(()));
        {
            let _guard = FailpointGuard::scenario("guard.test@item=2:error");
            assert_eq!(fire("guard.test", &[("item", 1)]), Ok(()));
            assert_eq!(
                fire("guard.test", &[("item", 2)]),
                Err(InjectedFailure {
                    site: "guard.test".to_string()
                })
            );
        }
        assert_eq!(fire("guard.test", &[("item", 2)]), Ok(()));
    }

    #[test]
    fn injected_panics_carry_the_marker() {
        install_quiet_panic_hook();
        let _guard = FailpointGuard::scenario("guard.panic:panic");
        let caught = std::panic::catch_unwind(|| trip("guard.panic", &[]));
        let payload = caught.expect_err("armed panic must fire");
        let message = crate::error::panic_payload(payload.as_ref());
        assert!(message.contains(INJECTED_MARKER), "{message}");
        assert!(message.contains("guard.panic"), "{message}");
    }

    #[test]
    fn error_without_channel_escalates_to_marked_panic() {
        install_quiet_panic_hook();
        let _guard = FailpointGuard::scenario("guard.trip:error");
        let caught = std::panic::catch_unwind(|| trip("guard.trip", &[]));
        let payload = caught.expect_err("armed error must escalate at trip sites");
        let message = crate::error::panic_payload(payload.as_ref());
        assert!(message.contains(INJECTED_MARKER), "{message}");
    }

    #[test]
    fn delay_proceeds_without_failing() {
        let _guard = FailpointGuard::scenario("guard.delay:delay(1)");
        assert_eq!(fire("guard.delay", &[]), Ok(()));
    }
}
