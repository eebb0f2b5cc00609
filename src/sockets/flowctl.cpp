#include "sockets/flowctl.hpp"

#include <algorithm>

#include "audit/audit.hpp"
#include "trace/trace.hpp"

namespace dcs::sockets {

namespace {
struct FlowMetrics {
  trace::Counter& sends = reg().counter("sockets.flowctl.sends");
  trace::Counter& bytes = reg().counter("sockets.flowctl.bytes");
  trace::Counter& stalls = reg().counter("sockets.flowctl.credit_stalls");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

FlowMetrics& flow_metrics() {
  thread_local FlowMetrics m;
  return m;
}
}  // namespace

FlowStreamBase::FlowStreamBase(verbs::Network& net, NodeId src, NodeId dst,
                               FlowConfig config)
    : net_(net),
      src_(src),
      dst_(dst),
      config_(config),
      credits_(net.fabric().engine(), config.num_buffers),
      arrivals_(net.fabric().engine()) {
  DCS_CHECK(config_.buffer_bytes > 0);
  DCS_CHECK(config_.num_buffers > 0);
}

void FlowStreamBase::start_receiver() {
  net_.fabric().engine().spawn(receiver_loop());
}

sim::Task<void> FlowStreamBase::quiesce() {
  auto& eng = net_.fabric().engine();
  while (credits_.available() < config_.num_buffers) {
    co_await eng.delay(microseconds(1));
  }
}

sim::Task<void> FlowStreamBase::receiver_loop() {
  auto& fab = net_.fabric();
  const auto& p = fab.params();
  for (;;) {
    const ArrivedBuffer buf = co_await arrivals_.recv();
    // Copy payload out of the staging buffer, then return the credit.
    co_await fab.node(dst_).execute(p.copy_time(buf.payload_bytes));
    co_await fab.wire_transfer(dst_, src_, fabric::FabricParams::kControlBytes);
    if (auto* a = audit::Auditor::current()) {
      a->credit_change(&credits_, "flowctl.credits", +1,
                       static_cast<std::int64_t>(config_.num_buffers));
    }
    credits_.release();
  }
}

sim::Task<void> CreditStream::send(std::size_t bytes) {
  DCS_CHECK_MSG(bytes <= config_.buffer_bytes,
                "message larger than staging buffer");
  auto& fab = net_.fabric();
  const auto& p = fab.params();
  DCS_TRACE_SPAN("sockets", "flowctl.send", src_, bytes, "credit");
  if (credits_.available() == 0) {
    flow_metrics().stalls.add();
    DCS_LOG("sockets", "flowctl.credit_stall", src_, bytes,
            config_.num_buffers);
    DCS_TRACE_COST_SPAN(trace::Cost::kCreditStall, "sockets",
                        "flowctl.credit_stall", src_, bytes);
    co_await credits_.acquire();
  } else {
    co_await credits_.acquire();
  }
  if (auto* a = audit::Auditor::current()) {
    a->credit_change(&credits_, "flowctl.credits", -1,
                     static_cast<std::int64_t>(config_.num_buffers));
  }
  flow_metrics().sends.add();
  flow_metrics().bytes.add(bytes);
  ++stats_.messages_sent;
  stats_.payload_bytes += bytes;
  ++stats_.buffers_consumed;
  co_await fab.node(src_).execute(p.copy_time(bytes));
  co_await net_.hca(src_).raw_write(dst_, bytes);
  arrivals_.push(ArrivedBuffer{bytes});
}

sim::Task<void> PacketizedStream::send(std::size_t bytes) {
  DCS_CHECK_MSG(bytes <= config_.buffer_bytes,
                "message larger than staging buffer");
  auto& fab = net_.fabric();
  const auto& p = fab.params();
  DCS_TRACE_SPAN("sockets", "flowctl.send", src_, bytes, "packetized");
  flow_metrics().sends.add();
  flow_metrics().bytes.add(bytes);
  if (fill_ + bytes > config_.buffer_bytes) {
    co_await ship(fill_);
    fill_ = 0;
  }
  // The sender packs the message into its staging copy of the remote buffer.
  co_await fab.node(src_).execute(p.copy_time(bytes));
  fill_ += bytes;
  ++stats_.messages_sent;
  stats_.payload_bytes += bytes;
}

sim::Task<void> PacketizedStream::flush() {
  if (fill_ > 0) {
    co_await ship(fill_);
    fill_ = 0;
  }
}

sim::Task<void> PacketizedStream::ship(std::size_t filled) {
  if (credits_.available() == 0) {
    flow_metrics().stalls.add();
    DCS_LOG("sockets", "flowctl.credit_stall", src_, filled,
            config_.num_buffers);
    DCS_TRACE_COST_SPAN(trace::Cost::kCreditStall, "sockets",
                        "flowctl.credit_stall", src_, filled);
    co_await credits_.acquire();
  } else {
    co_await credits_.acquire();
  }
  if (auto* a = audit::Auditor::current()) {
    a->credit_change(&credits_, "flowctl.credits", -1,
                     static_cast<std::int64_t>(config_.num_buffers));
  }
  ++stats_.buffers_consumed;
  co_await net_.hca(src_).raw_write(dst_, filled);
  arrivals_.push(ArrivedBuffer{filled});
}

}  // namespace dcs::sockets
