//! Deterministic fault injection for the mining stack.
//!
//! Compiled only under `cfg(any(test, feature = "failpoints"))`, this is a
//! tiny registry of named sites in the executor hot path at which a test
//! can make the engine panic. Every degradation path of the job-control
//! layer (panic isolation, `RunStatus::Degraded`, exact partial counts) is
//! exercised through these sites instead of being trusted on faith.
//!
//! Sites currently instrumented (all carry the current *start vertex* as
//! their context, so a test can poison one specific search root):
//!
//! | site             | fires in                                           |
//! |------------------|----------------------------------------------------|
//! | `start_vertex`   | [`Executor::run_vertex`] entry                     |
//! | `frontier_alloc` | candidate-core materialization (`materialize`) and |
//! |                  | each counting kernel, fused loop or not            |
//! | `csr_read`       | adjacency (CSR) reads feeding the merge pipeline   |
//! |                  | and the counting kernels, and each survivor's      |
//! |                  | stream in a pair join's sweep                      |
//!
//! Injection is scoped to a run, not to the process: [`guard`] hands out a
//! fresh scope id, the test puts it in the run's
//! [`EngineConfig::failpoint_scope`](crate::EngineConfig::failpoint_scope),
//! and a site only fires for executors carrying that scope. Runs with the
//! default scope `0` — every run that did not ask for faults, including
//! other tests running concurrently in the same binary — are never armed.
//!
//! [`Executor::run_vertex`]: crate::executor::Executor::run_vertex

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// When an armed site actually fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trigger {
    /// Every hit.
    Always,
    /// Only hits whose context (the current start vertex id) equals this
    /// value — the deterministic "poison exactly vertex v" knob.
    OnContext(u64),
    /// The nth hit of the site (1-based), regardless of context.
    OnNthHit(u64),
}

struct Armed {
    trigger: Trigger,
    message: String,
    hits: u64,
}

type Registry = Mutex<HashMap<(u64, &'static str), Armed>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms `site` in a fresh scope to panic with `message` when `trigger`
/// matches, and returns a guard that names the scope and disarms the site
/// when dropped, keeping tests hermetic even on failure paths.
#[must_use]
pub fn guard(site: &'static str, trigger: Trigger, message: &str) -> FailpointGuard {
    static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);
    let scope = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
    let armed = Armed { trigger, message: message.to_string(), hits: 0 };
    registry().lock().expect("failpoint registry poisoned").insert((scope, site), armed);
    FailpointGuard { scope, site }
}

/// Disarms its site on drop. Created by [`guard`].
pub struct FailpointGuard {
    scope: u64,
    site: &'static str,
}

impl FailpointGuard {
    /// The scope the site is armed in: a run sees the fault only if its
    /// config carries this value.
    pub fn scope(&self) -> u64 {
        self.scope
    }
}

impl Drop for FailpointGuard {
    fn drop(&mut self) {
        if let Ok(mut reg) = registry().lock() {
            reg.remove(&(self.scope, self.site));
        }
    }
}

/// Reports a hit of `site` by a run in `scope` with context `ctx` (the
/// current start vertex), panicking if the site is armed in that scope and
/// its trigger matches. Scope `0` is never armed and returns at once.
///
/// # Panics
///
/// Panics with the armed message — that is the point.
#[inline]
pub fn hit(scope: u64, site: &'static str, ctx: u64) {
    if scope != 0 {
        hit_slow(scope, site, ctx);
    }
}

#[cold]
fn hit_slow(scope: u64, site: &'static str, ctx: u64) {
    let message = {
        let mut reg = registry().lock().expect("failpoint registry poisoned");
        let Some(armed) = reg.get_mut(&(scope, site)) else { return };
        armed.hits += 1;
        let fires = match armed.trigger {
            Trigger::Always => true,
            Trigger::OnContext(want) => ctx == want,
            Trigger::OnNthHit(n) => armed.hits == n,
        };
        if !fires {
            return;
        }
        armed.message.clone()
        // The lock is released before panicking so the registry is never
        // poisoned by an injected fault.
    };
    panic!("failpoint {site} (ctx {ctx}): {message}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn unarmed_scopes_are_silent() {
        let g = guard("unit-silent", Trigger::Always, "boom");
        hit(0, "unit-silent", 0);
        hit(g.scope() + 1_000_000, "unit-silent", 0);
        hit(g.scope(), "unit-other-site", 0);
    }

    #[test]
    fn always_trigger_fires_and_guard_disarms() {
        let scope = {
            let g = guard("unit-always", Trigger::Always, "boom");
            let err = catch_unwind(AssertUnwindSafe(|| hit(g.scope(), "unit-always", 7)));
            let err = err.unwrap_err();
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("unit-always") && msg.contains("boom"), "{msg}");
            g.scope()
        };
        hit(scope, "unit-always", 7); // disarmed by guard drop
    }

    #[test]
    fn the_same_site_armed_twice_keeps_the_scopes_apart() {
        let a = guard("unit-shared", Trigger::OnContext(1), "a");
        let b = guard("unit-shared", Trigger::OnContext(2), "b");
        assert_ne!(a.scope(), b.scope());
        hit(a.scope(), "unit-shared", 2);
        hit(b.scope(), "unit-shared", 1);
        assert!(catch_unwind(AssertUnwindSafe(|| hit(a.scope(), "unit-shared", 1))).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| hit(b.scope(), "unit-shared", 2))).is_err());
    }

    #[test]
    fn context_trigger_is_selective() {
        let g = guard("unit-ctx", Trigger::OnContext(3), "ctx");
        hit(g.scope(), "unit-ctx", 2);
        assert!(catch_unwind(AssertUnwindSafe(|| hit(g.scope(), "unit-ctx", 3))).is_err());
    }

    #[test]
    fn nth_hit_trigger_counts() {
        let g = guard("unit-nth", Trigger::OnNthHit(3), "nth");
        hit(g.scope(), "unit-nth", 0);
        hit(g.scope(), "unit-nth", 0);
        assert!(catch_unwind(AssertUnwindSafe(|| hit(g.scope(), "unit-nth", 0))).is_err());
        // Counter keeps advancing past n; only the exact nth hit fires.
        hit(g.scope(), "unit-nth", 0);
    }
}
