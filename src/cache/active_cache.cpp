#include "cache/active_cache.hpp"

#include <array>

#include "common/rng.hpp"
#include "trace/trace.hpp"
#include "verbs/wire.hpp"

namespace dcs::cache {

namespace {
struct ActiveMetrics {
  trace::Counter& requests = reg().counter("cache.active.requests");
  trace::Counter& served_cached = reg().counter("cache.active.served_cached");
  trace::Counter& recomputed = reg().counter("cache.active.recomputed");
  trace::Counter& validations = reg().counter("cache.active.validations");
  trace::Counter& stale_served = reg().counter("cache.active.stale_served");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

ActiveMetrics& metrics() {
  thread_local ActiveMetrics m;
  return m;
}
}  // namespace

const char* to_string(DynamicPolicy p) {
  switch (p) {
    case DynamicPolicy::kNoCache: return "no-cache";
    case DynamicPolicy::kTtl: return "TTL";
    case DynamicPolicy::kStrong: return "strong (RDMA-validated)";
  }
  return "?";
}

ActiveCache::ActiveCache(ddss::Ddss& substrate, fabric::NodeId proxy,
                         DynamicPolicy policy, ActiveCacheConfig config)
    : ddss_(substrate), proxy_(proxy), policy_(policy), config_(config) {}

void ActiveCache::register_doc(const std::string& key,
                               std::vector<const DataObject*> deps) {
  DCS_CHECK(!deps.empty());
  docs_[key] = Doc{std::move(deps)};
}

std::vector<std::byte> ActiveCache::render(
    const std::string& key, const std::vector<std::uint64_t>& vers) {
  // Body = hash-expanded (key, versions): any dependency change changes
  // the body, so tests can detect exactly which state produced it.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : key) h = (h ^ static_cast<std::uint64_t>(c)) * 1099511628211ULL;
  for (const auto v : vers) h = (h ^ v) * 1099511628211ULL;
  std::vector<std::byte> body(256);
  std::uint64_t x = h;
  for (auto& b : body) {
    x = splitmix64(x);
    b = static_cast<std::byte>(x & 0xff);
  }
  return body;
}

sim::Task<std::vector<std::byte>> ActiveCache::recompute(
    const std::string& key, const Doc& doc) {
  ++stats_.recomputed;
  metrics().recomputed.add();
  DCS_TRACE_SPAN("cache", "active.recompute", proxy_, doc.deps.size(),
                 to_string(policy_));
  auto client = ddss_.client(proxy_);
  std::vector<std::uint64_t> versions;
  versions.reserve(doc.deps.size());
  // Read each dependency (content + version snapshot) and do the app work.
  for (const auto* dep : doc.deps) {
    std::vector<std::byte> buf(dep->allocation().size);
    const auto v = co_await client.get_versioned(dep->allocation(), buf);
    versions.push_back(v);
  }
  co_await ddss_.network().fabric().node(proxy_).execute(config_.compute_cpu);
  auto body = render(key, versions);
  cache_[key] = Entry{body, std::move(versions),
                      ddss_.engine().now()};
  co_return body;
}

sim::Task<std::vector<std::byte>> ActiveCache::serve(const std::string& key) {
  ++stats_.requests;
  metrics().requests.add();
  DCS_TRACE_SPAN("cache", "active.serve", proxy_, 0, to_string(policy_));
  const auto doc_it = docs_.find(key);
  DCS_CHECK_MSG(doc_it != docs_.end(), "unknown dynamic document");
  const Doc& doc = doc_it->second;

  if (policy_ == DynamicPolicy::kNoCache) {
    co_return co_await recompute(key, doc);
  }

  const auto entry_it = cache_.find(key);
  if (entry_it == cache_.end()) {
    co_return co_await recompute(key, doc);
  }
  Entry& entry = entry_it->second;

  if (policy_ == DynamicPolicy::kTtl) {
    if (ddss_.engine().now() - entry.cached_at < config_.ttl) {
      ++stats_.served_cached;
      metrics().served_cached.add();
      // Staleness accounting (measurement-only: reads simulator ground
      // truth directly, costing no virtual time — a real TTL cache would
      // not, and could not, perform this check).
      for (std::size_t i = 0; i < doc.deps.size(); ++i) {
        const auto& alloc = doc.deps[i]->allocation();
        audit::host_read(alloc.home,
                         alloc.meta.addr + ddss::MetaLayout::kVersion, 8,
                         "cache.ttl.truth-read");
        const auto truth = verbs::load_u64(
            ddss_.network().fabric().node(alloc.home).memory().bytes(
                alloc.meta.addr + ddss::MetaLayout::kVersion, 8),
            0);
        if (truth != entry.dep_versions[i]) {
          ++stats_.stale_served;
          metrics().stale_served.add();
          break;
        }
      }
      co_return entry.body;
    }
    co_return co_await recompute(key, doc);
  }

  // kStrong: validate every dependency version with one-sided reads — all
  // of them in one batched poll (one doorbell, one coalesced wake), instead
  // of a serial round trip per dependency.  Every dependency is validated
  // (the batch is already in flight), so the validation count is the
  // dependency count even when the first one already mismatches.
  std::vector<std::array<std::byte, 8>> ver_imgs(doc.deps.size());
  {
    verbs::OpBatch batch;
    for (std::size_t i = 0; i < doc.deps.size(); ++i) {
      batch.read(doc.deps[i]->allocation().meta, ddss::MetaLayout::kVersion,
                 ver_imgs[i]);
    }
    co_await ddss_.network().hca(proxy_).post(std::move(batch));
  }
  bool valid = true;
  for (std::size_t i = 0; i < doc.deps.size(); ++i) {
    const auto v = verbs::load_u64(ver_imgs[i], 0);
    ++stats_.validations;
    metrics().validations.add();
    if (v != entry.dep_versions[i]) valid = false;
  }
  if (valid) {
    ++stats_.served_cached;
    metrics().served_cached.add();
    co_return entry.body;
  }
  co_return co_await recompute(key, doc);
}

}  // namespace dcs::cache
