//! Stackful fibers: the substrate of the rank runtime.
//!
//! The paper's machines ran one heavyweight process per node. An OS thread
//! per rank caps a simulation near np≈100; to *measure* (not model) the
//! paper's 1024–6800 processor configurations, the executor multiplexes
//! thousands of rank bodies onto a few worker threads. Each rank is a
//! fiber: a private stack plus a saved register frame, switched
//! cooperatively at the scheduler hooks every channel operation passes
//! through.
//!
//! The context switch saves exactly what the `SysV` x86-64 ABI makes the
//! callee's problem: rbp, rbx, r12–r15, the SSE control/status word and the
//! x87 control word. Everything else is caller-saved and dead across the
//! `hot97_fiber_switch` call by construction.
//!
//! Safety story (why the `unsafe` below is sound):
//! * A fiber is resumed by at most one worker at a time (the executor's
//!   `Running` status transition enforces exclusivity under a lock).
//! * A suspended fiber's state lives entirely on its own stack; it may be
//!   resumed from a *different* worker thread. Re-pinning `CURRENT` on
//!   every resume is not enough to make that safe: the compiler treats a
//!   thread-local's *address* as constant within a function, so code
//!   inlined around a switch keeps using the previous worker's slot.
//!   Hence `CURRENT` is read only through the never-inlined [`current`],
//!   [`fiber_yield`] is never inlined into a caller's loop, and no other
//!   code a fiber can run uses thread-locals at all (`hot-analyze lint`,
//!   rule `runtime-api`, with this file the single exemption).
//! * Unwinding never crosses the assembly frames: the entry trampoline
//!   catches every panic and aborts the process if one escapes (rank
//!   bodies catch their own panics before this backstop is reachable).
//! * Scoped (non-`'static`) bodies are sound because the executor joins
//!   all fibers before the borrowed scope ends, exactly like
//!   `std::thread::scope`.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[cfg(not(target_arch = "x86_64"))]
compile_error!("the hot-comm Events runtime requires x86_64 (stackful fiber switch)");

// The switch: push callee-saved registers and the FP environment onto the
// current stack, store rsp through `save`, load rsp from `restore`, pop the
// other context's frame and return into it. 64 bytes per suspended frame.
core::arch::global_asm!(
    r#"
    .text
    .globl hot97_fiber_switch
    .p2align 4
hot97_fiber_switch:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    sub rsp, 8
    stmxcsr dword ptr [rsp]
    fnstcw word ptr [rsp + 4]
    mov qword ptr [rdi], rsp
    mov rsp, qword ptr [rsi]
    ldmxcsr dword ptr [rsp]
    fldcw word ptr [rsp + 4]
    add rsp, 8
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret

    .globl hot97_fiber_fpenv
    .p2align 4
hot97_fiber_fpenv:
    sub rsp, 16
    mov qword ptr [rsp], 0
    stmxcsr dword ptr [rsp]
    fnstcw word ptr [rsp + 4]
    mov rax, qword ptr [rsp]
    add rsp, 16
    ret

    // First activation of a fiber: the bootstrap frame put the payload
    // pointer in r15 and this trampoline in the return slot. The frame was
    // laid out so rsp is 16-aligned here; the call below then gives
    // hot97_fiber_entry the standard post-call alignment (rsp ≡ 8 mod 16).
    .globl hot97_fiber_start
    .p2align 4
hot97_fiber_start:
    mov rdi, r15
    call hot97_fiber_entry
    ud2
"#
);

extern "C" {
    fn hot97_fiber_switch(save: *mut usize, restore: *const usize);
    fn hot97_fiber_fpenv() -> u64;
    fn hot97_fiber_start();
}

/// Heap box handed to the trampoline on first activation.
struct Payload {
    body: Box<dyn FnOnce() + Send + 'static>,
}

/// Magic written at the low end of every fiber stack; checked after each
/// resume as a best-effort overflow tripwire (fiber stacks have no guard
/// page — they are plain heap allocations).
const STACK_CANARY: u64 = 0xF1BE_F1BE_DEAD_CA11;

/// Saved-frame size the switch code pushes/pops (6 GPRs + fpenv + ret).
const BOOT_FRAME: usize = 64;

thread_local! {
    /// The fiber currently executing on this worker thread, null between
    /// resumes. Re-pinned on every resume, so fibers may migrate workers.
    static CURRENT: Cell<*mut Fiber> = const { Cell::new(std::ptr::null_mut()) };
}

/// One suspended (or running) rank context.
pub(crate) struct Fiber {
    /// Owned stack. `vec![0u8; n]` goes through `alloc_zeroed`, so the
    /// pages are lazily mapped zero pages: thousands of multi-MiB stacks
    /// cost only the memory actually touched.
    stack: Vec<u8>,
    /// Saved rsp of the fiber while suspended.
    sp: usize,
    /// Saved rsp of the worker while the fiber runs.
    worker_sp: usize,
    started: bool,
    finished: bool,
    /// Owned until first activation (freed by `Drop` if never started);
    /// consumed by the entry trampoline otherwise.
    payload: *mut Payload,
}

// A Fiber is a bag of plain data plus a raw payload pointer that only the
// fiber's own (exclusively resumed) context touches; moving it between
// worker threads is safe.
unsafe impl Send for Fiber {}

impl Fiber {
    /// Build a fiber that will run `body` on its own `stack_size`-byte
    /// stack when first resumed.
    ///
    /// # Safety
    ///
    /// `body` may borrow non-`'static` data; the caller must guarantee the
    /// fiber is driven to completion (or dropped) before those borrows
    /// expire — the executor does this by joining inside `thread::scope`.
    pub(crate) unsafe fn new_scoped<'a>(
        stack_size: usize,
        body: Box<dyn FnOnce() + Send + 'a>,
    ) -> Fiber {
        let body: Box<dyn FnOnce() + Send + 'static> = std::mem::transmute(body);
        let mut stack = vec![0u8; stack_size.max(64 * 1024)];
        let base = stack.as_mut_ptr() as usize;
        (base as *mut u64).write_unaligned(STACK_CANARY);
        let top = (base + stack.len()) & !15;
        let sp = top - BOOT_FRAME;
        let payload = Box::into_raw(Box::new(Payload { body }));
        let p = sp as *mut usize;
        // Bootstrap frame, mirroring what hot97_fiber_switch pops:
        //   [0] fpenv (mxcsr + x87cw, inherited from the creating thread)
        //   [1] r15 = payload   [2..6] r14,r13,r12,rbx,rbp = 0
        //   [7] return address = trampoline
        p.add(0).write(hot97_fiber_fpenv() as usize);
        p.add(1).write(payload as usize);
        for i in 2..7 {
            p.add(i).write(0);
        }
        p.add(7).write(hot97_fiber_start as *const () as usize);
        Fiber { stack, sp, worker_sp: 0, started: false, finished: false, payload }
    }

    /// Run the fiber until it yields or its body returns. Returns `true`
    /// once the body has finished (further resumes are a bug).
    pub(crate) fn resume(&mut self) -> bool {
        assert!(!self.finished, "resumed a finished fiber");
        self.started = true;
        let prev = CURRENT.with(|c| c.replace(self as *mut Fiber));
        // SAFETY: sp points at a frame laid out by `new_scoped` or by a
        // previous suspend of this same fiber; exclusivity of resume is the
        // executor's invariant.
        unsafe {
            hot97_fiber_switch(&mut self.worker_sp, &self.sp);
        }
        CURRENT.with(|c| c.set(prev));
        let canary =
            unsafe { (self.stack.as_ptr() as *const u64).read_unaligned() };
        assert!(
            canary == STACK_CANARY,
            "fiber stack overflow detected (canary clobbered) — raise \
             RunConfig::builder().stack_size(..)"
        );
        self.finished
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        if !self.started {
            // Entry never ran; reclaim the payload box.
            drop(unsafe { Box::from_raw(self.payload) });
        }
        // A started-but-unfinished fiber's stack is freed without running
        // the Drops of values parked on it. That only happens when the
        // executor is already unwinding a rank panic out of `World`; the
        // leak is bounded and the alternative (unwinding a foreign stack)
        // is unsound.
    }
}

/// The fiber running on the calling OS thread, null outside any fiber.
/// Never inlined, so the thread-local's address is computed on the thread
/// that is executing *now*, not one the caller was on before a switch.
#[inline(never)]
fn current() -> *mut Fiber {
    CURRENT.with(Cell::get)
}

/// Suspend the current fiber and return control to the worker that resumed
/// it. Panics when called from outside any fiber (a scheduler-wiring bug).
///
/// Never inlined: folded into a caller's loop, a fiber that migrated
/// workers would look itself up on the worker it left and switch into
/// the wrong fiber's context.
#[inline(never)]
pub(crate) fn fiber_yield() {
    let f = current();
    assert!(!f.is_null(), "fiber_yield outside a fiber");
    // SAFETY: `f` is pinned for the duration of `resume` by the worker
    // holding `&mut Fiber`; we are that resumed context.
    unsafe {
        hot97_fiber_switch(&mut (*f).sp, &(*f).worker_sp);
    }
}

/// Whether the caller is running on a fiber (vs. a plain OS thread).
#[cfg(test)]
pub(crate) fn on_fiber() -> bool {
    !current().is_null()
}

/// First-activation entry, called by the asm trampoline with the payload
/// pointer. Never returns: after the body completes it parks in a yield
/// loop so a (buggy) extra resume cannot run off the stack.
#[no_mangle]
extern "C" fn hot97_fiber_entry(payload: *mut Payload) -> ! {
    // SAFETY: the trampoline passes the pointer `new_scoped` leaked; this
    // is its unique consumption.
    let body = unsafe { Box::from_raw(payload) }.body;
    if catch_unwind(AssertUnwindSafe(body)).is_err() {
        // Rank bodies catch their own panics and stash the payload; a
        // panic reaching here would unwind into assembly frames, which is
        // undefined behaviour. Die loudly instead.
        eprintln!("fatal: panic escaped a fiber body; aborting");
        std::process::abort();
    }
    let f = current();
    // SAFETY: a finishing fiber is by definition the CURRENT one.
    unsafe {
        (*f).finished = true;
    }
    loop {
        fiber_yield();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn boxed<'a>(f: impl FnOnce() + Send + 'a) -> Box<dyn FnOnce() + Send + 'a> {
        Box::new(f)
    }

    #[test]
    fn runs_to_completion_without_yield() {
        let hits = AtomicU64::new(0);
        let mut fib = unsafe {
            Fiber::new_scoped(
                256 * 1024,
                boxed(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                }),
            )
        };
        assert!(fib.resume());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn yields_and_resumes_preserving_locals() {
        let trace = std::sync::Mutex::new(Vec::new());
        let mut fib = unsafe {
            Fiber::new_scoped(
                256 * 1024,
                boxed(|| {
                    // Locals (incl. an FP value) must survive the switch.
                    let mut acc = 1.5f64;
                    for i in 0..3u64 {
                        trace.lock().unwrap().push((i, acc));
                        acc = acc * 2.0 + i as f64;
                        fiber_yield();
                    }
                    trace.lock().unwrap().push((99, acc));
                }),
            )
        };
        let mut resumes = 0;
        while !fib.resume() {
            resumes += 1;
            assert!(resumes < 10, "fiber never finished");
        }
        let t = trace.lock().unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], (0, 1.5));
        assert_eq!(t[3].0, 99);
        assert_eq!(t[3].1, ((1.5 * 2.0) * 2.0 + 1.0) * 2.0 + 2.0);
    }

    #[test]
    fn interleaves_many_fibers() {
        let order = std::sync::Mutex::new(Vec::new());
        let order = &order;
        let mut fibers: Vec<Fiber> = (0..8u32)
            .map(|id| unsafe {
                Fiber::new_scoped(
                    128 * 1024,
                    boxed(move || {
                        for round in 0..4u32 {
                            order.lock().unwrap().push((round, id));
                            fiber_yield();
                        }
                    }),
                )
            })
            .collect();
        // Round-robin until all finish.
        let mut live = fibers.len();
        while live > 0 {
            for f in &mut fibers {
                if !f.finished && f.resume() {
                    live -= 1;
                }
            }
        }
        let o = order.lock().unwrap();
        assert_eq!(o.len(), 32);
        // Within each round the fibers ran in creation order.
        for round in 0..4u32 {
            let ids: Vec<u32> =
                o.iter().filter(|(r, _)| *r == round).map(|(_, id)| *id).collect();
            assert_eq!(ids, (0..8).collect::<Vec<_>>(), "round {round}");
        }
    }

    #[test]
    fn unstarted_fiber_drop_frees_payload() {
        let guard = std::sync::Arc::new(());
        let g2 = guard.clone();
        let fib = unsafe { Fiber::new_scoped(128 * 1024, boxed(move || drop(g2))) };
        drop(fib);
        assert_eq!(std::sync::Arc::strong_count(&guard), 1);
    }

    #[test]
    fn on_fiber_reports_context() {
        assert!(!on_fiber());
        let saw = AtomicU64::new(0);
        let mut fib = unsafe {
            Fiber::new_scoped(
                128 * 1024,
                boxed(|| {
                    saw.store(u64::from(on_fiber()), Ordering::SeqCst);
                }),
            )
        };
        assert!(fib.resume());
        assert_eq!(saw.load(Ordering::SeqCst), 1);
        assert!(!on_fiber());
    }

    #[test]
    fn caught_panic_inside_body_is_contained() {
        // The *body closure* catches its own panic (as rank bodies do);
        // the fiber machinery only sees a clean return.
        let mut fib = unsafe {
            Fiber::new_scoped(
                256 * 1024,
                boxed(|| {
                    let r = catch_unwind(|| panic!("contained"));
                    assert!(r.is_err());
                }),
            )
        };
        assert!(fib.resume());
    }
}
