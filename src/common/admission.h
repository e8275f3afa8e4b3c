#ifndef COANE_COMMON_ADMISSION_H_
#define COANE_COMMON_ADMISSION_H_

#include <cstdint>
#include <mutex>

namespace coane {

/// Knobs of one admission gate: how many units may be in service at
/// once, and how many more may wait behind them before new arrivals are
/// shed outright.
struct AdmissionOptions {
  /// Units concurrently in service; values < 1 behave as 1.
  int64_t max_active = 64;
  /// Units allowed to wait for a free slot. 0 makes the gate flat:
  /// Offer() either admits immediately or sheds.
  int64_t queue_capacity = 0;
};

/// What Offer() decided about one arriving unit of work.
enum class AdmitDecision {
  /// A service slot was free and no earlier unit was pending; the unit
  /// is counted in-service now. Admission is FIFO — a freed slot with
  /// units still pending goes to the next Promote(), never to a new
  /// arrival — which is also what keeps in_service() bounded by
  /// max_active when callers drive the transitions correctly.
  kAdmit,
  /// All slots busy but the pending queue had room; the caller must park
  /// the unit and later call Promote() (starts service) or Withdraw()
  /// (abandons it, e.g. at drain).
  kQueue,
  /// Slots and queue both full: shed. The caller answers
  /// "ERR Unavailable: retry" (or equivalent) and drops the unit —
  /// nothing is counted outstanding.
  kShed,
};

/// Bounded-concurrency admission control, the policy core of the serving
/// front end (DESIGN.md §7 "Overload behavior"). The controller only does
/// the accounting — callers own the actual queue of file descriptors /
/// requests and drive the state transitions:
///
///   Offer() ── kAdmit ──────────────► in service ── Release() ──► done
///        │                                ▲
///        ├── kQueue ──► pending ── Promote()
///        │                  └───── Withdraw() ──► dropped (drain)
///        └── kShed ───► answered "Unavailable", never outstanding
///
/// Two instances back `TcpFrontend`: one gates connections (max_conns
/// in service + queue_cap pending, shed beyond), one gates in-flight
/// requests into the QueryEngine (flat, queue_capacity = 0). The class
/// is intentionally transport-agnostic so batch admission or a future
/// RPC front end can reuse it.
///
/// Thread-safety: every method may be called concurrently; state is a
/// handful of integers behind one mutex (an accept path admits a few
/// thousand units per second at most — contention is irrelevant next to
/// a syscall).
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  /// Classifies one arriving unit and updates the accounting (see the
  /// diagram above). Never blocks.
  AdmitDecision Offer();

  /// Convenience for flat gates: Offer(), true iff kAdmit. With
  /// queue_capacity == 0 a unit is never told to queue, so the only
  /// other outcome is a shed (already counted).
  bool TryEnter() { return Offer() == AdmitDecision::kAdmit; }

  /// Moves one pending unit into service (the caller dequeued it). The
  /// FIFO rule in Offer() reserves the freed slot for this call, so a
  /// caller that only promotes units it dequeued in arrival order never
  /// drives in_service() past max_active.
  void Promote();

  /// Drops one pending unit without serving it (drain, client hung up
  /// while queued). Counted in withdrawn().
  void Withdraw();

  /// One in-service unit finished; its slot frees.
  void Release();

  /// --- live state ---
  int64_t in_service() const;
  int64_t pending() const;

  /// --- monotonic counters (survive until destruction; the STATS
  /// ledger the chaos tests reconcile against) ---
  int64_t offered() const;    ///< every Offer() call
  int64_t admitted() const;   ///< kAdmit decisions
  int64_t queued() const;     ///< kQueue decisions
  int64_t shed() const;       ///< kShed decisions
  int64_t withdrawn() const;  ///< Withdraw() calls
  int64_t peak_in_service() const;

 private:
  const int64_t max_active_;
  const int64_t queue_capacity_;
  mutable std::mutex mu_;
  int64_t in_service_ = 0;
  int64_t pending_ = 0;
  int64_t offered_ = 0;
  int64_t admitted_ = 0;
  int64_t queued_ = 0;
  int64_t shed_ = 0;
  int64_t withdrawn_ = 0;
  int64_t peak_in_service_ = 0;
};

}  // namespace coane

#endif  // COANE_COMMON_ADMISSION_H_
