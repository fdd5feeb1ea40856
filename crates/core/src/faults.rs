//! Test-only fault injection: named failpoints compiled into the binary but
//! inert unless armed.
//!
//! A failpoint is a named call site — [`hit`] or [`hit_hint`] — that does
//! nothing until armed via the `SEVULDET_FAILPOINTS` environment variable
//! (read once at first use) or programmatically with [`arm`]. The
//! fault-injection suite uses them to kill a trainer at exact batch
//! boundaries, crash a save mid-write, and panic a serve worker on a chosen
//! request, then assert the recovery invariants.
//!
//! ## Spec grammar
//!
//! Comma-separated `name[:N]=action` clauses:
//!
//! * `action` is `abort` (SIGABRT, no unwinding — a stand-in for SIGKILL at
//!   a precise program point), `panic` (unwinds, for `catch_unwind`
//!   isolation), `panic@SUBSTR` (panics only when the call's hint string
//!   contains `SUBSTR`; hitless for plain [`hit`] calls), or `sleep:MS`
//!   (blocks the hitting thread for `MS` milliseconds — a small value makes
//!   a *slow* component, a huge one a *frozen* component that accepts work
//!   but never finishes it; the chaos suite builds both shard personalities
//!   from this one action).
//! * `:N` (1-based) delays the trigger until the Nth matching hit, so a
//!   trainer can be killed at the 7th batch boundary exactly.
//!
//! Example: `SEVULDET_FAILPOINTS="batch_boundary:5=abort"`.
//!
//! Overhead when nothing is armed: one relaxed atomic load per hit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Action {
    Abort,
    Panic,
    PanicIfHint(String),
    Sleep(u64),
}

#[derive(Debug)]
struct FailPoint {
    action: Action,
    /// Matching hits remaining before the trigger fires (1 = fire on the
    /// next matching hit).
    remaining: u64,
    /// Total matching hits observed (for test assertions).
    hits: u64,
}

/// Arming state, checked on every hit before touching the registry lock:
/// `UNKNOWN` until the environment variable has been parsed (the first hit
/// pays for initialization), then `ARMED` or `UNARMED`. [`arm`] flips it to
/// `ARMED` directly. It never returns to `UNARMED` — a fully [`disarm`]ed
/// registry just matches nothing.
const STATE_UNKNOWN: u8 = 0;
const STATE_UNARMED: u8 = 1;
const STATE_ARMED: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);

/// Writes one diagnostic line to stderr and drops a failed write: a reader
/// that closed stderr must not turn a failpoint message into a panic.
fn diag(line: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stderr(), "{line}");
}

fn registry() -> &'static Mutex<HashMap<String, FailPoint>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, FailPoint>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let map = Mutex::new(HashMap::new());
        let mut armed = false;
        if let Ok(spec) = std::env::var("SEVULDET_FAILPOINTS") {
            if !spec.trim().is_empty() {
                let mut guard = map.lock().unwrap_or_else(|e| e.into_inner());
                for clause in spec.split(',') {
                    match parse_clause(clause.trim()) {
                        Ok((name, fp)) => {
                            guard.insert(name, fp);
                            armed = true;
                        }
                        Err(msg) => diag(format_args!(
                            "SEVULDET_FAILPOINTS: ignoring `{clause}`: {msg}"
                        )),
                    }
                }
            }
        }
        // `ARMED` may already have been stored by a concurrent `arm()`;
        // never downgrade it.
        let _ = STATE.compare_exchange(
            STATE_UNKNOWN,
            if armed { STATE_ARMED } else { STATE_UNARMED },
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        map
    })
}

fn parse_clause(clause: &str) -> Result<(String, FailPoint), String> {
    let (target, action) = clause
        .split_once('=')
        .ok_or_else(|| "expected name=action".to_string())?;
    let (name, nth) = match target.split_once(':') {
        Some((n, count)) => (
            n,
            count
                .parse::<u64>()
                .ok()
                .filter(|&c| c >= 1)
                .ok_or_else(|| format!("bad hit count `{count}`"))?,
        ),
        None => (target, 1),
    };
    let action = if action == "abort" {
        Action::Abort
    } else if action == "panic" {
        Action::Panic
    } else if let Some(sub) = action.strip_prefix("panic@") {
        Action::PanicIfHint(sub.to_string())
    } else if let Some(ms) = action.strip_prefix("sleep:") {
        Action::Sleep(
            ms.parse::<u64>()
                .map_err(|_| format!("bad sleep duration `{ms}`"))?,
        )
    } else {
        return Err(format!("unknown action `{action}`"));
    };
    Ok((
        name.to_string(),
        FailPoint {
            action,
            remaining: nth,
            hits: 0,
        },
    ))
}

/// Arms failpoints from a spec string (same grammar as the environment
/// variable), merging over any already armed. Test-support API.
///
/// # Panics
///
/// Panics on a malformed spec — arming is test code, and a typo should fail
/// loudly.
pub fn arm(spec: &str) {
    let mut guard = registry().lock().unwrap_or_else(|e| e.into_inner());
    for clause in spec.split(',') {
        let (name, fp) = parse_clause(clause.trim()).expect("valid failpoint spec");
        guard.insert(name, fp);
    }
    STATE.store(STATE_ARMED, Ordering::Release);
}

/// Disarms one failpoint. Test-support API.
pub fn disarm(name: &str) {
    let mut guard = registry().lock().unwrap_or_else(|e| e.into_inner());
    guard.remove(name);
}

/// Matching hits a failpoint has observed so far (0 when never armed).
pub fn hits(name: &str) -> u64 {
    let guard = registry().lock().unwrap_or_else(|e| e.into_inner());
    guard.get(name).map_or(0, |fp| fp.hits)
}

/// A failpoint with no context; `panic@` clauses never fire here.
pub fn hit(name: &str) {
    hit_hint(name, "");
}

/// A failpoint carrying a context hint (e.g. the request names in a serve
/// batch), so `panic@SUBSTR` can target a specific poison input.
///
/// # Panics
///
/// By design, when armed with a `panic` action whose conditions match.
/// `abort` terminates the process without unwinding.
pub fn hit_hint(name: &str, hint: &str) {
    match STATE.load(Ordering::Acquire) {
        STATE_UNARMED => return,
        // First hit in the process: parse the environment variable, then
        // re-check what it said.
        STATE_UNKNOWN => {
            let _ = registry();
            if STATE.load(Ordering::Acquire) == STATE_UNARMED {
                return;
            }
        }
        _ => {}
    }
    let fire = {
        let mut guard = registry().lock().unwrap_or_else(|e| e.into_inner());
        let Some(fp) = guard.get_mut(name) else {
            return;
        };
        let matches = match &fp.action {
            Action::Abort | Action::Panic | Action::Sleep(_) => true,
            Action::PanicIfHint(sub) => hint.contains(sub.as_str()),
        };
        if !matches {
            return;
        }
        fp.hits += 1;
        fp.remaining -= 1;
        if fp.remaining > 0 {
            return;
        }
        fp.remaining = 1; // keep firing on subsequent matching hits
        fp.action.clone()
    };
    match fire {
        Action::Abort => {
            diag(format_args!("failpoint `{name}`: aborting process"));
            std::process::abort();
        }
        Action::Panic | Action::PanicIfHint(_) => {
            panic!("failpoint `{name}` fired (hint: {hint:?})");
        }
        Action::Sleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole lifecycle: the registry is process-global,
    // so separate #[test]s would race each other's arm/disarm.
    #[test]
    fn failpoint_lifecycle() {
        // Unarmed: free to hit.
        hit("fp-test-unarmed");
        assert_eq!(hits("fp-test-unarmed"), 0);

        // Countdown: fires on the 2nd hit, then every later hit.
        arm("fp-test-count:2=panic");
        hit("fp-test-count");
        assert_eq!(hits("fp-test-count"), 1);
        let caught = std::panic::catch_unwind(|| hit("fp-test-count"));
        assert!(caught.is_err(), "second hit must panic");
        let caught = std::panic::catch_unwind(|| hit("fp-test-count"));
        assert!(caught.is_err(), "stays armed after firing");
        disarm("fp-test-count");
        hit("fp-test-count");

        // Hint matching: only hints containing the marker fire.
        arm("fp-test-hint=panic@poison");
        hit_hint("fp-test-hint", "clean request");
        assert_eq!(hits("fp-test-hint"), 0);
        let caught = std::panic::catch_unwind(|| hit_hint("fp-test-hint", "a poison pill"));
        assert!(caught.is_err(), "matching hint must panic");
        hit("fp-test-hint"); // plain hit never matches panic@
        disarm("fp-test-hint");

        // Sleep: delays the hitting thread, keeps the process alive, and
        // keeps firing on later hits.
        arm("fp-test-sleep=sleep:30");
        let t0 = std::time::Instant::now();
        hit("fp-test-sleep");
        hit("fp-test-sleep");
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(60),
            "sleep failpoint must delay every hit"
        );
        assert_eq!(hits("fp-test-sleep"), 2);
        disarm("fp-test-sleep");

        // Malformed specs are rejected.
        assert!(parse_clause("nonsense").is_err());
        assert!(parse_clause("x:0=abort").is_err());
        assert!(parse_clause("x=explode").is_err());
        assert!(parse_clause("x=sleep:fast").is_err());
        assert!(parse_clause("x:3=abort").is_ok());
        assert!(parse_clause("x=sleep:250").is_ok());
    }
}
