#include "dlm/dqnl.hpp"

#include "audit/audit.hpp"
#include "trace/trace.hpp"
#include "verbs/wire.hpp"

namespace dcs::dlm {

namespace {
struct DqnlMetrics {
  trace::Counter& locks = reg().counter("dlm.dqnl.lock_acquires");
  trace::Counter& unlocks = reg().counter("dlm.dqnl.unlocks");
  trace::Counter& cas_retries = reg().counter("dlm.dqnl.cas_retries");
  trace::Distribution& lock_latency =
      reg().distribution("dlm.dqnl.lock_latency_ns");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

DqnlMetrics& metrics() {
  thread_local DqnlMetrics m;
  return m;
}
}  // namespace

DqnlLockManager::DqnlLockManager(verbs::Network& net, NodeId home,
                                 std::size_t max_locks)
    : net_(net), home_(home), max_locks_(max_locks) {
  table_ = net_.hca(home_).allocate_region(max_locks_ * 8);
  // The table is all CAS-polled lock words: release/acquire edges, not data.
  if (auto* a = audit::Auditor::current()) {
    a->mark_sync_range(home_, table_.addr, max_locks_ * 8);
  }
  audit::host_write(home_, table_.addr, max_locks_ * 8, "dlm.dqnl.zero-table");
  auto bytes = net_.fabric().node(home_).memory().bytes(table_.addr,
                                                        max_locks_ * 8);
  std::fill(bytes.begin(), bytes.end(), std::byte{0});
}

DqnlLockManager::~DqnlLockManager() {
  if (auto* a = audit::Auditor::current()) {
    a->unmark_sync_range(home_, table_.addr);
  }
  net_.hca(home_).free_region(table_);
}

sim::Task<void> DqnlLockManager::lock(NodeId self, LockId id, LockMode mode) {
  // DQNL has no shared mode; readers queue like writers.
  (void)mode;
  DCS_CHECK(id < max_locks_);
  metrics().locks.add();
  DCS_TRACE_COST_SPAN(trace::Cost::kLockWait, "dlm", "lock", self, id,
                      "DQNL");
  const SimNanos t0 = net_.fabric().engine().now();
  auto& hca = net_.hca(self);
  const std::size_t off = static_cast<std::size_t>(id) * 8;
  const std::uint64_t me = self + 1;

  // Atomic swap of the tail word, emulated with a CAS retry loop (IB verbs
  // expose CAS and FAA; [10] builds its queue from exactly these).
  std::uint64_t prev = 0;
  for (;;) {
    const auto old = co_await hca.compare_and_swap(table_, off, prev, me);
    if (old == prev) break;
    prev = old;
    ++cas_retries_;
    metrics().cas_retries.add();
  }

  if (prev == 0) {
    if (auto* a = audit::Auditor::current()) {
      a->lock_granted(this, "dqnl", id, self, /*exclusive=*/true);
    }
    metrics().lock_latency.record_ns(net_.fabric().engine().now() - t0);
    co_return;  // lock was free
  }
  // Tell the previous tail we are behind it, then wait for its grant.
  co_await hca.send(static_cast<NodeId>(prev - 1), tags::kDqnlWait + id,
                    verbs::Encoder().u32(self).take());
  (void)co_await hca.recv(tags::kDqnlGrant + id);
  if (auto* a = audit::Auditor::current()) {
    a->lock_granted(this, "dqnl", id, self, /*exclusive=*/true);
  }
  metrics().lock_latency.record_ns(net_.fabric().engine().now() - t0);
}

sim::Task<void> DqnlLockManager::unlock(NodeId self, LockId id) {
  DCS_CHECK(id < max_locks_);
  metrics().unlocks.add();
  DCS_TRACE_SPAN("dlm", "unlock", self, id, "DQNL");
  auto& hca = net_.hca(self);
  const std::size_t off = static_cast<std::size_t>(id) * 8;
  const std::uint64_t me = self + 1;
  if (auto* a = audit::Auditor::current()) {
    a->lock_released(this, "dqnl", id, self);
  }

  // Direct handoff: a successor that already announced itself gets the lock
  // with a single message, no atomic needed.
  if (auto pending = hca.try_recv(tags::kDqnlWait + id)) {
    const NodeId successor = verbs::Decoder(pending->payload).u32();
    if (auto* a = audit::Auditor::current()) {
      a->lock_handoff(this, "dqnl", id, self, successor);
    }
    co_await hca.send(successor, tags::kDqnlGrant + id,
                      verbs::Encoder().u32(id).take());
    co_return;
  }

  // Fast path: nobody queued behind us.
  const auto old = co_await hca.compare_and_swap(table_, off, me, 0);
  if (old == me) co_return;

  // Someone swapped in behind us; their notification names our successor.
  verbs::Message msg = co_await hca.recv(tags::kDqnlWait + id);
  const NodeId successor = verbs::Decoder(msg.payload).u32();
  if (auto* a = audit::Auditor::current()) {
    a->lock_handoff(this, "dqnl", id, self, successor);
  }
  co_await hca.send(successor, tags::kDqnlGrant + id,
                    verbs::Encoder().u32(id).take());
}

}  // namespace dcs::dlm
