// Concurrency contracts (DESIGN.md §15).
//
// Every lock in the tree goes through the wrappers in this header, which buy
// two enforcement layers on top of the std primitives:
//
//   1. Static: Clang Thread Safety Analysis. The wrappers carry `CAPABILITY`
//      annotations and the tree annotates protected state with `GUARDED_BY`
//      and lock-sensitive APIs with `REQUIRES`/`ACQUIRE`/`RELEASE`, so lock
//      discipline violations are compile errors under
//      `clang++ -Werror=thread-safety` (the `thread-safety` CI job). The
//      macros degrade to no-ops on other compilers.
//
//   2. Dynamic: a debug-build lock-rank validator. Every Mutex/SharedMutex is
//      constructed with a `LockRank` from the global hierarchy below; each
//      acquisition checks the calling thread's held-lock set for rank
//      inversions and feeds a global acquired-after graph whose cycles are
//      detected on the spot. A violation reports both acquisition stacks and
//      aborts (tests can intercept via SetViolationHandler). This catches the
//      ordering bugs static analysis cannot see — cross-TU protocols,
//      conditional acquisition — on every existing concurrency/chaos test.
//
// In Release builds (OPTIMUS_LOCK_RANK_DEBUG == 0) the wrappers compile down
// to the bare std types: no extra state (sizeof-identical, statically
// asserted in sync.cc) and no extra code on the lock/unlock path.
//
// Rules of use:
//   * Construct every long-lived lock with an explicit LockRank and name.
//     Default-constructed (unranked) locks are tracked in the held-set but
//     exempt from rank/cycle checking — reserve them for tests and leaf
//     scaffolding.
//   * Acquire in strictly increasing rank order. Two locks of the *same* rank
//     (e.g. two NodePool node mutexes) may not be held together unless every
//     thread agrees on the per-instance order — the acquired-after graph
//     enforces that agreement globally.
//   * Adding a lock? Pick the rank from the hierarchy table in DESIGN.md §15
//     (rank → mutex → protected state) and extend the table.

#ifndef OPTIMUS_SRC_COMMON_SYNC_H_
#define OPTIMUS_SRC_COMMON_SYNC_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis annotation macros (no-ops off-Clang).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define OPTIMUS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define OPTIMUS_THREAD_ANNOTATION(x)  // Not supported by this compiler.
#endif

#define CAPABILITY(x) OPTIMUS_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY OPTIMUS_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) OPTIMUS_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) OPTIMUS_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) OPTIMUS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) OPTIMUS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) OPTIMUS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) OPTIMUS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) OPTIMUS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) OPTIMUS_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) OPTIMUS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) OPTIMUS_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) OPTIMUS_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) OPTIMUS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  OPTIMUS_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) OPTIMUS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) OPTIMUS_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) OPTIMUS_THREAD_ANNOTATION(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) OPTIMUS_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS OPTIMUS_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Lock-rank validator build gate. On by default in debug builds; force with
// -DOPTIMUS_LOCK_RANK_DEBUG=1 (the CMake OPTIMUS_LOCK_RANK option).
// ---------------------------------------------------------------------------

#if !defined(OPTIMUS_LOCK_RANK_DEBUG)
#if defined(NDEBUG)
#define OPTIMUS_LOCK_RANK_DEBUG 0
#else
#define OPTIMUS_LOCK_RANK_DEBUG 1
#endif
#endif

namespace optimus {

// The global lock hierarchy (DESIGN.md §15 holds the full rank → mutex →
// protected-state table). Locks must be acquired in strictly increasing rank
// order; gaps leave room for future locks. The numeric order encodes today's
// documented protocols, e.g. tenant admission happens strictly before (never
// across) a platform dispatch, and the invoke path goes node → plan-cache
// shard → plan-cache entry latch.
enum class LockRank : uint32_t {
  kTenantAdmission = 5,   // gateway per-tenant token buckets (service.cc)
  kRepository = 20,       // platform model repository (shared)
  kPlacementUpdate = 30,  // placement manager table swaps
  kNode = 40,             // per-node container state (NodePool)
  kPlanCacheShard = 50,   // plan-cache shard maps
  kPlanCacheEntry = 60,   // plan-cache per-entry latch
  kQuarantine = 70,       // plan-cache execution-failure quarantine
  kRebalance = 80,        // background rebalancer wakeup
  kWarming = 85,          // background warming-loop wakeup (platform.cc)
  kDemand = 90,           // placement demand accumulator
  kPlacementMemo = 95,    // model-sharing policy pair-distance memo (leaf)
  kThreadPool = 100,      // worker-pool task queue
  kMetricsRegistry = 110, // telemetry series registry (shared)
  kTraceSampler = 120,    // trace sampler RNG
  kFaultRegistry = 130,   // fault-point registry (shared)
  kFaultPoint = 140,      // individual fault-point trigger state
  kJitter = 150,          // gateway retry-jitter RNG
  // Unranked locks are exempt from rank/cycle checking (tests, scaffolding).
  kUnranked = 0xFFFFFFFF,
};

namespace lockrank {

// A detected ordering violation. `message` carries the full human-readable
// report including both acquisition stacks.
struct Violation {
  const char* kind;  // "rank-inversion" | "lock-cycle" | "recursive-acquisition"
                     // | "unheld-release"
  std::string message;
};

using Handler = void (*)(const Violation&);

// Installs a violation handler and returns the previous one. The default
// handler writes the report to stderr and aborts; tests install a recording
// handler (a handler that returns lets the offending acquisition proceed).
// No-op (returns nullptr) when the validator is compiled out.
Handler SetViolationHandler(Handler handler);

// Locks currently held by the calling thread (0 when compiled out).
size_t HeldLockCount();

// Clears the global acquired-after graph (test isolation).
void ResetGraphForTest();

namespace internal {
// Raw std primitives for the validator's own bookkeeping (it must never
// recurse into the wrappers) and for the Release layout asserts in sync.cc.
// These aliases are the only sanctioned spelling of the std lock types
// outside this header — everything else uses optimus::Mutex/SharedMutex.
using RawMutex = std::mutex;
using RawSharedMutex = std::shared_mutex;
using RawCondVar = std::condition_variable;
}  // namespace internal

#if OPTIMUS_LOCK_RANK_DEBUG
namespace internal {
// Called by the wrappers around every acquisition/release. PreAcquire runs
// the rank/cycle checks *before* blocking on the lock so a would-be deadlock
// reports instead of hanging; PostAcquire pushes the held-set entry.
void PreAcquire(const void* mu, uint32_t rank, const char* name);
void PostAcquire(const void* mu, uint32_t rank, const char* name, bool shared);
void OnTryAcquire(const void* mu, uint32_t rank, const char* name, bool shared);
void OnRelease(const void* mu, const char* name);
}  // namespace internal
#endif

}  // namespace lockrank

// ---------------------------------------------------------------------------
// Lock wrappers. Release layout is exactly the wrapped std type.
// ---------------------------------------------------------------------------

class CAPABILITY("mutex") Mutex {
 public:
  // Unranked: tracked in the held-set, exempt from rank/cycle checks.
  Mutex() = default;

#if OPTIMUS_LOCK_RANK_DEBUG
  explicit Mutex(LockRank rank, const char* name = "")
      : rank_(static_cast<uint32_t>(rank)), name_(name) {}
#else
  explicit Mutex(LockRank /*rank*/, const char* /*name*/ = "") {}
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if OPTIMUS_LOCK_RANK_DEBUG
    lockrank::internal::PreAcquire(this, rank_, name_);
    mu_.lock();
    lockrank::internal::PostAcquire(this, rank_, name_, /*shared=*/false);
#else
    mu_.lock();
#endif
  }

  bool TryLock() TRY_ACQUIRE(true) {
    const bool acquired = mu_.try_lock();
#if OPTIMUS_LOCK_RANK_DEBUG
    if (acquired) {
      lockrank::internal::OnTryAcquire(this, rank_, name_, /*shared=*/false);
    }
#endif
    return acquired;
  }

  void Unlock() RELEASE() {
#if OPTIMUS_LOCK_RANK_DEBUG
    lockrank::internal::OnRelease(this, name_);
#endif
    mu_.unlock();
  }

  // The wrapped handle, for the CondVar bridge only.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
#if OPTIMUS_LOCK_RANK_DEBUG
  uint32_t rank_ = static_cast<uint32_t>(LockRank::kUnranked);
  const char* name_ = "unranked";
#endif
};

class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;

#if OPTIMUS_LOCK_RANK_DEBUG
  explicit SharedMutex(LockRank rank, const char* name = "")
      : rank_(static_cast<uint32_t>(rank)), name_(name) {}
#else
  explicit SharedMutex(LockRank /*rank*/, const char* /*name*/ = "") {}
#endif

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
#if OPTIMUS_LOCK_RANK_DEBUG
    lockrank::internal::PreAcquire(this, rank_, name_);
    mu_.lock();
    lockrank::internal::PostAcquire(this, rank_, name_, /*shared=*/false);
#else
    mu_.lock();
#endif
  }

  void Unlock() RELEASE() {
#if OPTIMUS_LOCK_RANK_DEBUG
    lockrank::internal::OnRelease(this, name_);
#endif
    mu_.unlock();
  }

  // Shared (reader) acquisitions participate in ordering like exclusive ones:
  // a reader held while acquiring another lock deadlocks against a pending
  // writer exactly the way an exclusive hold would.
  void LockShared() ACQUIRE_SHARED() {
#if OPTIMUS_LOCK_RANK_DEBUG
    lockrank::internal::PreAcquire(this, rank_, name_);
    mu_.lock_shared();
    lockrank::internal::PostAcquire(this, rank_, name_, /*shared=*/true);
#else
    mu_.lock_shared();
#endif
  }

  void UnlockShared() RELEASE_SHARED() {
#if OPTIMUS_LOCK_RANK_DEBUG
    lockrank::internal::OnRelease(this, name_);
#endif
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
#if OPTIMUS_LOCK_RANK_DEBUG
  uint32_t rank_ = static_cast<uint32_t>(LockRank::kUnranked);
  const char* name_ = "unranked";
#endif
};

// ---------------------------------------------------------------------------
// Scoped holders (the only idiomatic way to take a lock in this tree).
// ---------------------------------------------------------------------------

// Exclusive scoped hold of a Mutex. Supports the condvar wait-loop idiom of
// releasing across a long operation and re-acquiring before scope exit
// (Unlock()/Lock()); the destructor releases only if still held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() {
    if (owns_) {
      mu_->Unlock();
    }
  }

  void Unlock() RELEASE() {
    owns_ = false;
    mu_->Unlock();
  }

  void Lock() ACQUIRE() {
    mu_->Lock();
    owns_ = true;
  }

 private:
  Mutex* mu_;
  bool owns_ = true;
};

// Exclusive scoped hold of a SharedMutex (the writer side).
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

  ~WriterLock() RELEASE() { mu_->Unlock(); }

 private:
  SharedMutex* mu_;
};

// Shared scoped hold of a SharedMutex (the reader side).
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(&mu) { mu_->LockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

  ~ReaderLock() RELEASE_GENERIC() { mu_->UnlockShared(); }

 private:
  SharedMutex* mu_;
};

// Condition variable bound to optimus::Mutex. Wait() takes the Mutex itself
// (the caller keeps holding it via MutexLock); waits are expressed as
// explicit `while (!predicate) cv.Wait(mu);` loops rather than predicate
// lambdas so the guarded-state reads in the predicate stay visible to the
// static analysis.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks, and re-acquires before returning. The
  // caller must re-check its predicate (spurious wakeups). The held-set entry
  // for `mu` is intentionally kept across the wait: a parked thread acquires
  // nothing, and the re-acquisition restores the exact pre-wait state.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();  // Ownership stays with the caller's MutexLock.
  }

  void NotifyOne() noexcept { cv_.notify_one(); }
  void NotifyAll() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_COMMON_SYNC_H_
