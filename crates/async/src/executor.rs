//! A minimal single-future executor, so the crate (and its tests,
//! examples, and benchmarks) can run futures without an async runtime
//! dependency.
//!
//! [`block_on`] parks the calling thread between polls; the waker
//! unparks it. That is the entire contract the timer driver needs: wakes
//! may arrive from the ticker thread (realtime mode) or from the
//! same thread inside [`TimerDriver::advance`](crate::TimerDriver::advance)
//! (virtual time), and `Thread::unpark`'s permit semantics make the
//! already-unparked case a no-op rather than a lost wakeup.

use std::future::Future;
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// Waker that unparks the thread that created it.
struct Unparker {
    thread: Thread,
}

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.thread.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.thread.unpark();
    }
}

/// Drives `future` to completion on the current thread, parking between
/// polls.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = pin!(future);
    let waker = Waker::from(Arc::new(Unparker {
        thread: std::thread::current(),
    }));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            // Park consumes the unpark permit if a wake already landed,
            // so a wake between poll and park is not lost. Spurious
            // unparks just re-poll.
            Poll::Pending => std::thread::park(),
        }
    }
}
