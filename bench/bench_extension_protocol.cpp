/// \file bench_extension_protocol.cpp
/// Extension: the trusted-party protocol (des/ + sim/protocol)
/// made measurable — wire messages, bytes and end-to-end latency of one
/// VO formation as the grid (m) and the program (n) grow, under a
/// WAN-ish latency model.
#include "bench/common.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "sim/protocol.hpp"
#include "tests/ip/test_instances.hpp"

int main() {
  using namespace svo;
  const bench::Session session("Extension", "trusted-party protocol cost (messages/bytes)");

  sim::ProtocolOptions proto;
  proto.latency.base_seconds = 0.025;         // WAN round-half: 25 ms
  proto.latency.bytes_per_second = 1.25e7;    // 100 Mbit/s links
  proto.latency.jitter = 0.2;

  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);

  util::Table table({"GSPs", "tasks", "messages", "kbytes",
                     "report phase s", "end-to-end s", "mechanism s"});
  table.set_precision(3);
  for (const auto& [m, n] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {8, 256}, {16, 256}, {16, 2048}, {16, 8192}, {32, 2048}}) {
    util::Xoshiro256 gen(m * 1000 + n);
    ip::AssignmentInstance inst = ip::testing::random_instance(m, n, gen);
    const trust::TrustGraph trust = trust::random_trust_graph(m, 0.2, gen);
    util::Xoshiro256 rng(7);
    const sim::DistributedRunResult r =
        sim::run_distributed(tvof, inst, trust, rng, proto);
    table.add_row({static_cast<long long>(m), static_cast<long long>(n),
                   static_cast<long long>(r.protocol.messages),
                   static_cast<double>(r.protocol.bytes) / 1024.0,
                   r.protocol.report_phase_seconds,
                   r.protocol.completion_seconds,
                   r.mechanism.elapsed_seconds});
  }
  bench::emit(table, "extension_protocol.csv");
  std::printf("\ninterpretation: messages grow linearly in m (reports and "
              "notices), bytes are dominated by the 16n-byte cost/time "
              "reports, and end-to-end latency = one report round trip + "
              "the mechanism's own compute time — the centralized design "
              "the paper assumes is cheap in messages but concentrates "
              "all data movement into the trusted party.\n");
  return 0;
}
