//! Runs one serve on its own thread under a wall-clock timeout, so a
//! deadlocked or panicking serve becomes a reported failure instead of
//! a hung benchmark.

use std::any::Any;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// How a guarded call ended.
#[derive(Debug)]
pub enum Outcome<T> {
    /// The call returned `Ok`; the duration is its wall time, taken on
    /// the serving thread.
    Done(T, Duration),
    /// The call returned a typed error.
    Error(String),
    /// The call panicked.
    Panicked(String),
    /// The call did not return within the timeout. Its thread is left
    /// detached: a deadlocked thread cannot be joined, and it ends with
    /// the process.
    TimedOut(Duration),
}

impl<T> Outcome<T> {
    /// A one-line description of a failed call (`None` for success).
    pub fn failure(&self) -> Option<String> {
        match self {
            Outcome::Done(..) => None,
            Outcome::Error(e) => Some(format!("error: {e}")),
            Outcome::Panicked(p) => Some(format!("panic: {p}")),
            Outcome::TimedOut(t) => Some(format!("timed out after {:.1} s", t.as_secs_f64())),
        }
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs `call` on a fresh thread and waits at most `timeout` for it.
pub fn run<T, E, F>(timeout: Duration, call: F) -> Outcome<T>
where
    T: Send + 'static,
    E: std::fmt::Display,
    F: FnOnce() -> Result<T, E> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name("guarded-serve".into())
        .spawn(move || {
            let start = Instant::now();
            let result = call().map_err(|e| e.to_string());
            // The receiver is gone only after a timeout; nothing waits
            // for the result any more.
            let _ = tx.send((result, start.elapsed()));
        })
        .expect("spawning the serve thread");
    match rx.recv_timeout(timeout) {
        Ok((result, wall)) => {
            // The thread has sent its last message; joining is prompt.
            if let Err(payload) = handle.join() {
                return Outcome::Panicked(panic_message(payload));
            }
            match result {
                Ok(v) => Outcome::Done(v, wall),
                Err(e) => Outcome::Error(e),
            }
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => Outcome::Panicked(panic_message(payload)),
            Ok(()) => Outcome::Error("serve thread ended without a result".into()),
        },
        Err(RecvTimeoutError::Timeout) => Outcome::TimedOut(timeout),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_error_and_panic_are_told_apart() {
        let t = Duration::from_secs(5);
        assert!(matches!(run(t, || Ok::<_, String>(7)), Outcome::Done(7, _)));
        assert!(matches!(
            run(t, || Err::<(), _>("typed".to_string())),
            Outcome::Error(e) if e == "typed"
        ));
        let out = run(t, || -> Result<(), String> { panic!("boom") });
        assert!(matches!(out, Outcome::Panicked(p) if p == "boom"));
    }

    #[test]
    fn a_call_that_never_returns_times_out() {
        let (_keep, rx) = mpsc::channel::<()>();
        let out = run(Duration::from_millis(50), move || {
            let _ = rx.recv();
            Ok::<(), String>(())
        });
        assert!(matches!(out, Outcome::TimedOut(_)));
    }

    /// The worker-error deadlock repro: the kernel mix asks for ids the
    /// standard bank lacks. The serve must end in a typed error or a
    /// reported timeout, never hang the caller.
    #[test]
    fn unknown_algorithm_serve_fails_without_hanging() {
        let out = crate::selftest(crate::SELFTEST_TIMEOUT);
        assert!(
            matches!(out, Outcome::Error(_) | Outcome::TimedOut(_)),
            "expected a typed error or a timeout, got {out:?}"
        );
    }
}
