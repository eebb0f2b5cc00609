// E9 — Section 6: credit-based vs packetized flow control.
//
// Paper shape: with 8 KB staging buffers, two 1-byte messages waste 99.98 %
// of a credit each under credit-based flow control; sender-managed
// packetized packing recovers close to an order of magnitude of
// small-message throughput.  Full-buffer messages are equivalent.
#include "common/table.hpp"
#include "sockets/flowctl.hpp"

namespace {

using namespace dcs;
using sockets::CreditStream;
using sockets::FlowConfig;
using sockets::PacketizedStream;

struct FlowOutcome {
  double msgs_per_sec;
  double mbytes_per_sec;
  double buffer_utilization;
};

template <typename Stream>
FlowOutcome run_stream(std::size_t msg_bytes, int count) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  Stream stream(net, 0, 1, FlowConfig{});
  stream.start_receiver();
  SimNanos elapsed = 0;
  eng.spawn([](Stream& s, sim::Engine& e, std::size_t m, int n,
               SimNanos& done) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) co_await s.send(m);
    if constexpr (requires { s.flush(); }) co_await s.flush();
    co_await s.quiesce();
    done = e.now();
    e.stop();
  }(stream, eng, msg_bytes, count, elapsed));
  eng.run_until(seconds(1000));
  DCS_CHECK(elapsed > 0);
  const double secs = to_secs(elapsed);
  return FlowOutcome{
      count / secs,
      static_cast<double>(stream.stats().payload_bytes) / secs / 1e6,
      stream.stats().buffer_utilization(FlowConfig{}.buffer_bytes)};
}

const std::vector<std::size_t> kSizes = {64, 256, 1024, 4096, 8192};

void print_table() {
  Table table({"msg size", "credit msgs/s", "packetized msgs/s", "speedup",
               "credit util %", "packetized util %"});
  for (const std::size_t size : kSizes) {
    const int count = size <= 1024 ? 2000 : 500;
    const auto credit = run_stream<CreditStream>(size, count);
    const auto packed = run_stream<PacketizedStream>(size, count);
    table.add_row({std::to_string(size) + " B",
                   Table::fmt(credit.msgs_per_sec, 0),
                   Table::fmt(packed.msgs_per_sec, 0),
                   Table::fmt(packed.msgs_per_sec / credit.msgs_per_sec, 1) +
                       "x",
                   Table::fmt(100 * credit.buffer_utilization, 2),
                   Table::fmt(100 * packed.buffer_utilization, 2)});
  }
  table.print(
      "Section 6 — credit-based vs packetized flow control "
      "(paper: ~order of magnitude for small messages)");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
