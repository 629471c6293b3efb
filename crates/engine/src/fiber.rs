//! Stackful fibers: user-space cooperative contexts for the simulation
//! scheduler.
//!
//! The engine admits exactly one simulated processor at a time (see
//! [`crate::run`]), so running each processor on its own OS thread buys no
//! concurrency — it only buys a futex round-trip on every handoff. At
//! `schedule_quantum = 1` (the paper's configurations) the engine hands off
//! after nearly every access, and those round-trips dominate wall-clock
//! time. A fiber switch saves and restores the callee-saved registers and
//! the stack pointer, against microseconds for a futex wake.
//!
//! A handoff is one direct switch from the yielding fiber to the next one
//! ([`FiberSet::switch_to`]); it does not pass through the scheduler. The
//! scheduler ([`FiberSet::resume`]) starts the first fiber and gets control
//! back only when a fiber finishes, so it can retire it and start the next.
//! On a 2-vCPU x86_64 host, two fibers handing off directly take about
//! 8 ns a switch; a handoff through the scheduler (two switches that resume
//! with `ret`, see `imp::switch`) took about 68 ns.
//!
//! Safety model: fibers never migrate between OS threads — a [`FiberSet`]
//! is created, driven, and dropped on one thread, and the only entry points
//! into fiber context are [`FiberSet::resume`] (from the scheduler) and
//! [`FiberSet::switch_to`] (from a fiber of the running set). Panics inside
//! a fiber are caught at the fiber trampoline and re-thrown on the
//! scheduler's stack, so unwinding never crosses a context switch.
//!
//! Each fiber's stack is its own anonymous memory mapping with an
//! inaccessible guard page below it: pages are committed only as the fiber
//! first touches them, and an overflow faults (the process dies with
//! `SIGSEGV`) instead of writing into neighbouring memory.
//!
//! Only x86_64 Unix has a switch and stack implementation today;
//! [`supported`] reports availability and the runner falls back to the
//! OS-thread backend elsewhere.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;

/// Is the fiber backend available on this target?
pub const fn supported() -> bool {
    cfg!(all(target_arch = "x86_64", unix))
}

/// Default fiber stack size. Workload closures are ordinary Rust code
/// (allocator, formatting machinery on panic paths, recursion in workload
/// builders), so this is deliberately generous. Each stack is a lazily
/// committed mapping, so only the pages a fiber actually touches become
/// resident.
pub const DEFAULT_STACK_BYTES: usize = 1 << 20;

/// Smallest stack [`FiberSet::spawn`] hands out.
const MIN_STACK_BYTES: usize = 16 * 1024;

/// Saved execution context: just the stack pointer. Everything else lives
/// on the fiber's stack, pushed and popped by the switch primitive.
#[derive(Default)]
#[repr(C)]
struct Context {
    sp: u64,
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::Context;

    /// Switch from the context `from` to the context `to`.
    ///
    /// System V x86_64: push the callee-saved registers and a resume
    /// address onto the current stack, publish the stack pointer through
    /// `from`, adopt `to`'s stack pointer, pop its registers and its resume
    /// address, and jump there.
    ///
    /// The resume is `pop rax; jmp rax`, not `ret`. A `ret` would consume
    /// the return-stack-buffer entry that the `call` into this function
    /// pushed, mispredict, and leave the buffer one entry out of step for
    /// every return that follows on the new stack. The indirect `jmp`
    /// always lands on the label below, which the branch predictor learns,
    /// and the function's own `ret` then pops the entry its `call` pushed.
    /// Its target is predicted right whenever both fibers called in from
    /// the same site, which [`super::FiberSet::switch_to`] arranges.
    ///
    /// Every caller-saved register is declared clobbered so the compiler
    /// spills anything live across the switch.
    ///
    /// # Safety
    /// `from` must be writable; `to` must hold a stack pointer previously
    /// produced by this function or by `init_stack`, on a live stack.
    #[inline(never)]
    pub(super) unsafe extern "C" fn switch(from: *mut Context, to: *const Context) {
        core::arch::asm!(
            "lea rax, [rip + 2f]",
            "push rax",
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, [rsi]",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "pop rax",
            "jmp rax",
            "2:",
            in("rdi") from,
            in("rsi") to,
            lateout("rax") _, lateout("rcx") _, lateout("rdx") _,
            lateout("r8") _, lateout("r9") _, lateout("r10") _, lateout("r11") _,
            out("xmm0") _, out("xmm1") _, out("xmm2") _, out("xmm3") _,
            out("xmm4") _, out("xmm5") _, out("xmm6") _, out("xmm7") _,
            out("xmm8") _, out("xmm9") _, out("xmm10") _, out("xmm11") _,
            out("xmm12") _, out("xmm13") _, out("xmm14") _, out("xmm15") _,
            clobber_abi("C"),
        );
    }

    /// Prepare a fresh stack so the first `switch` into it lands in
    /// `entry`. Returns the initial stack pointer.
    ///
    /// Layout (top down): 16-byte alignment padding, then the frame
    /// `switch` pops — six zeroed callee-saved slots under the entry
    /// address. After `switch` pops them and the address and jumps into
    /// `entry`, `rsp % 16 == 8`, exactly the System V state at a function
    /// entry.
    ///
    /// # Safety
    /// `top` must be the writable upper end of a stack that outlives every
    /// switch into the returned context.
    pub(super) unsafe fn init_stack(top: *mut u8, entry: extern "C" fn() -> !) -> u64 {
        let mut p = ((top as u64) & !15) as *mut u64;
        // One padding slot so the entry address sits at `16k+8`: after the
        // six register pops and the address pop, `rsp % 16 == 8` — the System V
        // state at a function entry (as if reached by `call`). Without it,
        // aligned SSE spills in the entry fault.
        p = p.sub(1);
        *p = 0;
        p = p.sub(1);
        *p = entry as usize as u64;
        for _ in 0..6 {
            p = p.sub(1);
            *p = 0;
        }
        p as u64
    }
}

/// The mapping calls the stacks need, declared directly so the workspace
/// stays free of external crates.
mod sys {
    use std::ffi::c_void;

    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    #[cfg(target_os = "linux")]
    pub const MAP_ANONYMOUS: i32 = 0x20;
    /// `MAP_ANON` on macOS and the BSDs.
    #[cfg(not(target_os = "linux"))]
    pub const MAP_ANONYMOUS: i32 = 0x1000;
    pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;
    /// The x86_64 base page size.
    pub const PAGE_BYTES: usize = 4096;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A fiber stack: an anonymous private mapping whose lowest page is an
/// inaccessible guard. Nothing is committed until the fiber touches it,
/// and the whole mapping is returned to the kernel on drop.
struct Stack {
    /// Start of the mapping (the guard page).
    base: *mut u8,
    /// Length of the mapping, guard page included.
    len: usize,
}

impl Stack {
    /// Map a stack with at least `bytes` usable bytes above its guard page.
    fn new(bytes: usize) -> Stack {
        // `CCSIM_STACK_BYTES` can ask for any size, so round up checked.
        let Some(len) = bytes
            .checked_next_multiple_of(sys::PAGE_BYTES)
            .and_then(|usable| usable.checked_add(sys::PAGE_BYTES))
        else {
            panic!("fiber stack of {bytes} bytes overflows the address space");
        };
        // SAFETY: a fresh anonymous mapping at a kernel-chosen address
        // aliases nothing, and the guard page lies inside it.
        unsafe {
            let base = sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                -1,
                0,
            );
            assert!(
                base != sys::MAP_FAILED,
                "fiber stack: mmap of {len} bytes failed: {}",
                std::io::Error::last_os_error()
            );
            let guarded = sys::mprotect(base, sys::PAGE_BYTES, sys::PROT_NONE);
            if guarded != 0 {
                let err = std::io::Error::last_os_error();
                sys::munmap(base, len);
                panic!("fiber stack: guard page mprotect failed: {err}");
            }
            Stack {
                base: base.cast(),
                len,
            }
        }
    }

    /// One past the highest usable byte; stacks grow down from here.
    fn top(&self) -> *mut u8 {
        // SAFETY: `base + len` is one past the end of the mapping.
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` are exactly the mapping `new` created, and
        // no fiber runs on it any more: a `FiberSet` drops its slots only
        // from scheduler context.
        unsafe {
            sys::munmap(self.base.cast(), self.len);
        }
    }
}

thread_local! {
    /// The fiber executing on this thread, or null outside every fiber. A
    /// raw pointer is sound here because a fiber only runs while its
    /// `FiberSet` is borrowed mutably by `resume`, which pins it.
    static CURRENT: Cell<*mut FiberSlot> = const { Cell::new(std::ptr::null_mut()) };
    /// The set whose fibers run on this thread, or null outside every
    /// fiber: what [`FiberSet::switch_to`] indexes, and where a finishing
    /// fiber finds the scheduler's context. `resume` publishes it and
    /// restores the previous value, so a simulation nested inside a fiber
    /// switches among its own fibers and hands the outer set back intact.
    static RUNNING: Cell<*mut FiberSet> = const { Cell::new(std::ptr::null_mut()) };
}

struct FiberSlot {
    ctx: Context,
    /// This fiber's index in its set, which `resume` reports when the
    /// fiber finishes.
    index: usize,
    /// Owned stack mapping; it never moves, and unmaps with the slot.
    #[allow(dead_code)]
    stack: Stack,
    /// Entry closure, consumed by the trampoline on first entry.
    entry: Option<Box<dyn FnOnce()>>,
    /// Panic payload captured at the trampoline, if the fiber panicked.
    panic: Option<Box<dyn std::any::Any + Send>>,
    finished: bool,
}

/// First frame of every fiber: run the entry closure under `catch_unwind`,
/// record the outcome, and switch back to the scheduler for good.
extern "C" fn trampoline() -> ! {
    let slot = CURRENT.with(|c| c.get());
    // SAFETY: `resume` or `switch_to` set CURRENT to this fiber's slot just
    // before switching here. The slot is boxed and its set stays borrowed
    // by `resume` until some fiber of it finishes, so the pointer is live;
    // the other fibers of the set run only while this one is switched out.
    unsafe {
        let entry = (*slot)
            .entry
            .take()
            // ccsim-lint: allow(unwrap): the trampoline runs exactly once per fiber
            .expect("fiber entered twice");
        let result = std::panic::catch_unwind(AssertUnwindSafe(entry));
        if let Err(payload) = result {
            (*slot).panic = Some(payload);
        }
        (*slot).finished = true;
        // The set that is running now: the entry may have run a nested
        // simulation, which published its own set and restored this one.
        let set = RUNNING.with(|c| c.get());
        imp::switch(
            std::ptr::addr_of_mut!((*slot).ctx),
            std::ptr::addr_of!((*set).sched),
        );
    }
    // Neither `resume` nor `switch_to` enters a finished fiber.
    unreachable!("a finished fiber was resumed")
}

/// A set of cooperatively scheduled fibers, all pinned to the thread that
/// created them.
pub(crate) struct FiberSet {
    /// Where `resume` waits while the set's fibers run; a fiber switches
    /// here only when it finishes.
    sched: Context,
    // The Box is load-bearing, not an accident: raw pointers into a slot
    // (CURRENT, the trampoline's frame) must survive `spawn` reallocating
    // the Vec, so every slot needs its own stable heap address.
    #[allow(clippy::vec_box)]
    slots: Vec<Box<FiberSlot>>,
}

impl FiberSet {
    pub(crate) fn new() -> Self {
        assert!(supported(), "fiber backend not available on this target");
        FiberSet {
            sched: Context::default(),
            slots: Vec::new(),
        }
    }

    /// Add a fiber that will run `entry` when first entered.
    pub(crate) fn spawn(&mut self, stack_bytes: usize, entry: Box<dyn FnOnce()>) {
        let stack = Stack::new(stack_bytes.max(MIN_STACK_BYTES));
        // SAFETY: the mapping lives in the slot alongside the context and
        // is unmapped only when the slot is dropped.
        let sp = unsafe { imp::init_stack(stack.top(), trampoline) };
        self.slots.push(Box::new(FiberSlot {
            ctx: Context { sp },
            index: self.slots.len(),
            stack,
            entry: Some(entry),
            panic: None,
            finished: false,
        }));
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Run fiber `i`, and every fiber the running ones switch to, until one
    /// of them finishes. Returns the index of the fiber that finished: it
    /// never runs again, and any panic payload is held for
    /// [`FiberSet::take_panic`]. The other fibers stay where they were.
    pub(crate) fn resume(&mut self, i: usize) -> usize {
        assert!(!self.slots[i].finished, "resumed a finished fiber");
        let set: *mut FiberSet = self;
        // SAFETY: `set` comes from `&mut self`, which pins the set and its
        // boxed slots until `resume` returns; from here on every access
        // goes through `set`. The fibers run on this same OS thread, and
        // the one that finishes switches back before `resume` returns.
        unsafe {
            let to: *mut FiberSlot = &mut *(&mut (*set).slots)[i];
            let prev_set = RUNNING.with(|c| c.replace(set));
            let prev = CURRENT.with(|c| c.replace(to));
            imp::switch(
                std::ptr::addr_of_mut!((*set).sched),
                std::ptr::addr_of!((*to).ctx),
            );
            // Only a finishing fiber switches here, with CURRENT naming it.
            let done = CURRENT.with(|c| c.replace(prev));
            RUNNING.with(|c| c.set(prev_set));
            (*done).index
        }
    }

    /// Suspend the running fiber and switch straight to fiber `next` of the
    /// same set, entering it for the first time if it has not run yet.
    /// Returns when another fiber of the set switches back to this one.
    ///
    /// Every handoff passes through this one non-inlined call, so every
    /// parked fiber waits at the same return address, and the returns that
    /// follow a switch match the return-stack buffer (see `imp::switch`).
    ///
    /// Panics outside a fiber, or if `next` is out of range. `next` must not
    /// have finished.
    // ccsim-lint: allow(panic-path): the runner passes only `next_runner` picks, ids the spawn loop assigned, always in range
    #[inline(never)]
    pub(crate) fn switch_to(next: usize) {
        let set = RUNNING.with(|c| c.get());
        assert!(!set.is_null(), "switch_to called outside fiber context");
        let from = CURRENT.with(|c| c.get());
        // SAFETY: RUNNING is non-null only while `resume` pins the set, and
        // CURRENT then names the running fiber's slot in it (same argument
        // as `resume`). The indexing is bounds-checked.
        unsafe {
            let to: *mut FiberSlot = &mut *(&mut (*set).slots)[next];
            debug_assert!(!(*to).finished, "switched to a finished fiber");
            CURRENT.with(|c| c.set(to));
            imp::switch(
                std::ptr::addr_of_mut!((*from).ctx),
                std::ptr::addr_of!((*to).ctx),
            );
        }
    }

    /// Take fiber `i`'s panic payload, if it panicked.
    pub(crate) fn take_panic(&mut self, i: usize) -> Option<Box<dyn std::any::Any + Send>> {
        self.slots[i].panic.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Neither thread-local may outlive the `resume` that published it.
    fn assert_outside_fibers() {
        assert!(CURRENT.with(|c| c.get()).is_null(), "CURRENT restored");
        assert!(RUNNING.with(|c| c.get()).is_null(), "RUNNING restored");
    }

    /// Three fibers hand the turn round a ring by direct switches, three
    /// times each; the scheduler enters only fiber 0. Fibers 1 and 2 are
    /// first entered by `switch_to`, and each fiber's last switch parks it
    /// until the scheduler resumes it to finish.
    #[test]
    fn a_ring_of_direct_switches_runs_in_handoff_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut set = FiberSet::new();
        for id in 0..3u32 {
            let log = Rc::clone(&log);
            set.spawn(
                64 * 1024,
                Box::new(move || {
                    for step in 0..3u32 {
                        log.borrow_mut().push(id * 10 + step);
                        FiberSet::switch_to((id as usize + 1) % 3);
                    }
                }),
            );
        }
        // Fiber 2's last switch lands in fiber 0 after its last step.
        assert_eq!(set.resume(0), 0, "fiber 0 finishes first");
        assert_eq!(*log.borrow(), vec![0, 10, 20, 1, 11, 21, 2, 12, 22]);
        assert_outside_fibers();
        assert_eq!(set.resume(2), 2, "a parked fiber resumes where it switched");
        assert_eq!(set.resume(1), 1);
        assert_eq!(log.borrow().len(), 9, "finishing logs nothing more");
        assert_outside_fibers();
    }

    /// A fiber whose first entry is a `switch_to` from a sibling, never a
    /// `resume`, starts on a correctly aligned stack, and its finish brings
    /// `resume` back with its own index while the sibling stays parked.
    #[test]
    fn a_fiber_first_entered_by_switch_to_starts_correctly() {
        #[repr(align(16))]
        struct Aligned([u8; 16]);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut set = FiberSet::new();
        let l = Rc::clone(&log);
        set.spawn(
            64 * 1024,
            Box::new(move || {
                l.borrow_mut().push("0 starts");
                FiberSet::switch_to(1);
                l.borrow_mut().push("0 resumes");
            }),
        );
        let l = Rc::clone(&log);
        set.spawn(
            64 * 1024,
            Box::new(move || {
                // A misaligned entry stack shows up as a misaligned local:
                // the compiler places it assuming `rsp % 16 == 8` at entry.
                let local = Aligned([1; 16]);
                let addr = std::hint::black_box(std::ptr::addr_of!(local) as usize);
                assert_eq!(addr % 16, 0, "16-byte-aligned local at {addr:#x}");
                assert_eq!(std::hint::black_box(&local).0, [1; 16]);
                l.borrow_mut().push("1 runs");
            }),
        );
        assert_eq!(set.resume(0), 1, "fiber 1 finished; fiber 0 is parked");
        assert!(set.take_panic(1).is_none(), "fiber 1 ran cleanly");
        assert_eq!(set.resume(0), 0);
        assert_eq!(*log.borrow(), vec!["0 starts", "1 runs", "0 resumes"]);
        assert_outside_fibers();
    }

    #[test]
    fn finished_fiber_reports_finished() {
        let mut set = FiberSet::new();
        set.spawn(64 * 1024, Box::new(|| {}));
        assert_eq!(set.resume(0), 0);
        assert!(set.take_panic(0).is_none());
    }

    /// A fiber that panics after direct switches brings `resume` back with
    /// its own index and its payload; the fiber it left parked is unharmed.
    #[test]
    fn panic_is_captured_not_propagated() {
        let mut set = FiberSet::new();
        set.spawn(
            64 * 1024,
            Box::new(|| {
                FiberSet::switch_to(1);
                FiberSet::switch_to(1);
            }),
        );
        set.spawn(
            64 * 1024,
            Box::new(|| {
                FiberSet::switch_to(0);
                panic!("inside fiber");
            }),
        );
        assert_eq!(set.resume(0), 1, "the panicking fiber reports itself");
        assert_outside_fibers();
        let payload = set.take_panic(1).expect("payload captured");
        let msg = payload
            .downcast_ref::<&'static str>()
            .copied()
            .unwrap_or("?");
        assert_eq!(msg, "inside fiber");
        assert_eq!(set.resume(0), 0, "the parked fiber still finishes");
        assert!(set.take_panic(0).is_none());
    }

    #[test]
    fn deep_stack_use_survives() {
        fn burn(n: u64) -> u64 {
            // Recursion with a live local per frame defeats tail calls.
            let local = [n; 8];
            if n == 0 {
                local[0]
            } else {
                burn(n - 1) + local[7]
            }
        }
        let mut set = FiberSet::new();
        set.spawn(
            512 * 1024,
            Box::new(|| {
                assert_eq!(burn(1000), 500_500);
            }),
        );
        assert_eq!(set.resume(0), 0);
    }

    /// Recurse until the current frame sits `bytes` below `top`, then
    /// unwind; returns the number of frames that took.
    fn dig(top: usize, bytes: usize, depth: u64) -> u64 {
        let local = [depth; 16];
        let here = std::hint::black_box(&local) as *const _ as usize;
        if top - here >= bytes {
            return depth;
        }
        // Using `local` after the call keeps the frame alive (no tail call).
        dig(top, bytes, depth + 1).max(std::hint::black_box(local)[15])
    }

    /// Run `dig` to `bytes` of depth on a fresh fiber with a stack of
    /// `stack_bytes`; returns the frame count.
    fn dig_in_fiber(stack_bytes: usize, bytes: usize) -> u64 {
        let frames = Rc::new(Cell::new(0));
        let out = Rc::clone(&frames);
        let mut set = FiberSet::new();
        set.spawn(
            stack_bytes,
            Box::new(move || {
                let top = 0u8;
                let top = std::hint::black_box(&top) as *const u8 as usize;
                out.set(dig(top, bytes, 0));
            }),
        );
        assert_eq!(set.resume(0), 0);
        assert!(set.take_panic(0).is_none());
        frames.get()
    }

    #[test]
    fn half_a_mebibyte_of_stack_is_usable() {
        assert!(dig_in_fiber(DEFAULT_STACK_BYTES, 512 * 1024) > 0);
    }

    /// Set by [`stack_overflow_dies_with_sigsegv`] in the child it spawns.
    const OVERFLOW_CHILD_ENV: &str = "CCSIM_FIBER_OVERFLOW_CHILD";

    /// The child half of [`stack_overflow_dies_with_sigsegv`]: run twice
    /// as deep as a minimum-size fiber stack allows, then return. A no-op
    /// unless [`OVERFLOW_CHILD_ENV`] is set; returning at all with it set
    /// means the overflow went undetected.
    #[test]
    fn overflow_child() {
        if std::env::var_os(OVERFLOW_CHILD_ENV).is_none() {
            return;
        }
        let mut set = FiberSet::new();
        set.spawn(
            MIN_STACK_BYTES,
            Box::new(|| {
                let top = 0u8;
                let top = std::hint::black_box(&top) as *const u8 as usize;
                std::hint::black_box(dig(top, 2 * MIN_STACK_BYTES, 0));
            }),
        );
        // The next mapping usually lands directly below the first, so
        // without a guard page the overflow would run into it silently.
        set.spawn(MIN_STACK_BYTES, Box::new(|| {}));
        set.resume(0);
    }

    #[cfg(unix)]
    #[test]
    fn stack_overflow_dies_with_sigsegv() {
        use std::os::unix::process::ExitStatusExt;
        const SIGSEGV: i32 = 11;
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args([
                "fiber::tests::overflow_child",
                "--exact",
                "--test-threads=1",
            ])
            .env(OVERFLOW_CHILD_ENV, "1")
            .output()
            .expect("spawn the overflow child");
        assert_eq!(
            out.status.signal(),
            Some(SIGSEGV),
            "child exited with {:?}; stdout:\n{}\nstderr:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
