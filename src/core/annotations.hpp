#pragma once
/// \file annotations.hpp
/// Clang thread-safety analysis macros plus the annotated `Mutex` /
/// `MutexLock` wrappers the concurrency-sensitive layers (htd::obs first)
/// use instead of raw `std::mutex` / `std::lock_guard`.
///
/// Under Clang, `-Wthread-safety` statically proves lock discipline: a
/// member declared `HTD_GUARDED_BY(mutex_)` cannot be touched unless the
/// compiler can see `mutex_` held on every path, and a helper declared
/// `HTD_REQUIRES(mutex_)` cannot be called without it. Under GCC (this
/// repo's default toolchain) every macro expands to nothing and `Mutex`
/// degrades to a plain `std::mutex` wrapper with identical runtime
/// behavior, so annotated code builds everywhere while the `tidy` /
/// Clang-based presets get the proof. See DESIGN.md §11.
///
/// The std:: primitives themselves carry no capability attributes under
/// libstdc++, which is why the wrappers exist: annotating `std::mutex`
/// members directly would make Clang report false positives at every
/// `std::lock_guard` (the analysis cannot see through an unannotated
/// guard type).

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define HTD_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HTD_THREAD_ANNOTATION(x)  // no-op on GCC/MSVC
#endif

/// Declares a type to be a capability ("mutex") the analysis can track.
#define HTD_CAPABILITY(x) HTD_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define HTD_SCOPED_CAPABILITY HTD_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define HTD_GUARDED_BY(x) HTD_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define HTD_PT_GUARDED_BY(x) HTD_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability (and does not release it).
#define HTD_ACQUIRE(...) HTD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define HTD_RELEASE(...) HTD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function may only be called while holding the capability.
#define HTD_REQUIRES(...) HTD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function may only be called while *not* holding the capability
/// (self-deadlock guard for public entry points).
#define HTD_EXCLUDES(...) HTD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability iff it returns `ret`.
#define HTD_TRY_ACQUIRE(ret, ...) \
    HTD_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function returns a reference to the capability guarding its result.
#define HTD_RETURN_CAPABILITY(x) HTD_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: suppress the analysis inside one function (vetted
/// single-threaded or init-order code only; every use needs a comment).
#define HTD_NO_THREAD_SAFETY_ANALYSIS HTD_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Audited shared mutable state. htd_lint's `global-mutable-state` pass
/// flags every namespace-scope or function-local `static` /
/// `thread_local` mutable variable in src/ and tools/ unless the
/// declarator carries this annotation with a non-empty justification:
///
///     static Registry instance HTD_SHARED_STATE_OK("process singleton");
///
/// The macro expands to nothing — it exists for the analyzer, which
/// surfaces every surviving justification in the htd_lint.v4 JSON report
/// so the audit trail cannot silently rot. See DESIGN.md §16.
#define HTD_SHARED_STATE_OK(reason)

/// Marks the statement *after* it (a `for` / `while` loop, including its
/// body) as a region the item-2 threading work may parallelize. Inside a
/// marked region htd_lint enforces the determinism contracts threading
/// depends on: no naive floating-point `+=` / `std::accumulate`
/// reductions (`float-reduction-order` — use core::stable_sum /
/// core::StableAccumulator, whose summation order is fixed) and no single
/// RNG engine feeding multiple call sites (`rng-discipline` — per-thread
/// substreams via Rng::split are required first). Usage:
///
///     HTD_PARALLEL_READY;
///     for (std::size_t i = 0; i < n; ++i) { ... }
///
/// Expands to a no-op static_assert so the marker costs nothing and
/// cannot be misplaced where a statement is illegal. See DESIGN.md §16.
#define HTD_PARALLEL_READY \
    static_assert(true, "htd_lint: parallel-ready region marker")

namespace htd::core {

/// `std::mutex` with thread-safety capability annotations. Same cost and
/// semantics as the raw primitive; exists so Clang's analysis can track
/// acquire/release through it (see file comment).
class HTD_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() HTD_ACQUIRE() { impl_.lock(); }
    void unlock() HTD_RELEASE() { impl_.unlock(); }
    [[nodiscard]] bool try_lock() HTD_TRY_ACQUIRE(true) { return impl_.try_lock(); }

private:
    std::mutex impl_;
};

/// RAII lock for `Mutex` — the annotated stand-in for
/// `std::lock_guard<std::mutex>`.
class HTD_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& mutex) HTD_ACQUIRE(mutex) : mutex_(mutex) {
        mutex_.lock();
    }
    ~MutexLock() HTD_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

private:
    Mutex& mutex_;
};

}  // namespace htd::core
