/// Golden pins of Table I scenario generation. Every experiment, stream
/// run and service bench starts from sim::ScenarioFactory::make, so a
/// change to how it samples a program, draws speeds and workloads,
/// orders Braun cost rows or redraws (deadline, payment) must leave each
/// scenario bit for bit as it was. Per scenario the table records the
/// program's source job, FNV-1a hashes over the bits of the cost and
/// time matrices, the workloads, the speeds and the trust edges, the
/// deadline and payment bits, the probe's redraw count, the relaxation
/// flag and both mechanism seeds. The configurations cover the paper
/// protocol (m = 16, n = 256..8192), a full-size trace with 128 jobs per
/// small size (m = 8, n in {24, 48}), a 4 000-job trace, the BaselineOnly
/// and None monotonicity modes, the Lublin-Feitelson trace model and a
/// deadline range tight enough that every draw is relaxed. A second test
/// pins one synthetic Atlas-like trace, canonical-size retag included.
///
/// A mismatch prints the whole actual table in the table's own syntax.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "tests/pin_hash.hpp"
#include "trace/atlas_synth.hpp"

namespace svo::sim {
namespace {

using pin::bits;
using pin::fnv1a;

std::uint64_t fnv1a(const trust::TrustGraph& trust) {
  pin::Fnv1a h;
  const graph::Digraph& g = trust.graph();
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    for (const graph::Edge& e : g.out_edges(v)) {
      h.add(v).add(e.to).add(e.weight);
    }
  }
  return h.value();
}

struct Row {
  std::string label;
  std::int64_t source_job = 0;
  std::uint64_t cost = 0;       ///< fnv1a of the cost matrix bits
  std::uint64_t time = 0;       ///< fnv1a of the time matrix bits
  std::uint64_t workloads = 0;  ///< fnv1a of the workload bits
  std::uint64_t speeds = 0;     ///< fnv1a of the speed bits
  std::uint64_t deadline = 0;   ///< bits
  std::uint64_t payment = 0;    ///< bits
  std::uint64_t trust = 0;      ///< fnv1a of (from, to, weight bits) edges
  std::uint64_t redraws = 0;
  bool relaxed = false;
  std::uint64_t tvof_seed = 0;
  std::uint64_t rvof_seed = 0;

  bool operator==(const Row&) const = default;
};

std::string format(const Row& r) {
  std::ostringstream os;
  os << "{\"" << r.label << "\", " << r.source_job << ", " << std::hex
     << "0x" << r.cost << "ULL, 0x" << r.time << "ULL, 0x" << r.workloads
     << "ULL, 0x" << r.speeds << "ULL, 0x" << r.deadline << "ULL, 0x"
     << r.payment << "ULL, 0x" << r.trust << "ULL, " << std::dec << r.redraws
     << "U, " << (r.relaxed ? "true" : "false") << ", " << std::hex << "0x"
     << r.tvof_seed << "ULL, 0x" << r.rvof_seed << "ULL},";
  return os.str();
}

Row row_of(const std::string& label, const Scenario& s) {
  const workload::GridInstance& gi = s.instance;
  return {label,
          gi.program.source_job,
          fnv1a(gi.assignment.cost.data()),
          fnv1a(gi.assignment.time.data()),
          fnv1a(gi.workloads),
          fnv1a(gi.speeds),
          bits(gi.assignment.deadline),
          bits(gi.assignment.payment),
          fnv1a(s.trust),
          gi.feasibility_redraws,
          gi.deadline_relaxed,
          s.tvof_seed,
          s.rvof_seed};
}

/// Appends one row per (size, repetition) of `cfg`'s sizes and `reps`.
void append_rows(const char* label, const ExperimentConfig& cfg,
                 const std::vector<std::size_t>& reps, std::vector<Row>& out) {
  const ScenarioFactory factory(cfg);
  for (const std::size_t n : cfg.task_sizes) {
    for (const std::size_t rep : reps) {
      out.push_back(row_of(std::string(label) + " n" + std::to_string(n) +
                               " r" + std::to_string(rep),
                           factory.make(n, rep)));
    }
  }
}

/// Small trace with one size below and one above any sort cut-over.
ExperimentConfig small_config(workload::WorkloadMonotonicity mono) {
  ExperimentConfig cfg;
  cfg.seed = 4242;
  cfg.trace.num_jobs = 3000;
  cfg.trace.canonical_sizes = {32, 512};
  cfg.trace.min_jobs_per_canonical_size = 4;
  cfg.task_sizes = {32, 512};
  cfg.gen.params.num_gsps = 6;
  cfg.gen.braun.monotonicity = mono;
  return cfg;
}

std::vector<Row> scenario_table() {
  std::vector<Row> out;

  const ExperimentConfig paper;
  append_rows("paper", paper, {0, 1, 7}, out);

  ExperimentConfig svc;
  svc.seed = 0x5C;
  svc.gen.params.num_gsps = 8;
  svc.task_sizes = {24, 48};
  svc.trace.canonical_sizes = {24, 48};
  svc.trace.min_jobs_per_canonical_size = 128;
  append_rows("svc", svc, {0, 1, 127}, out);

  ExperimentConfig stream;
  stream.seed = 0x57E0;
  stream.gen.params.num_gsps = 8;
  stream.task_sizes = {24, 48};
  stream.trace.num_jobs = 4000;
  stream.trace.canonical_sizes = {24, 48};
  stream.trace.min_jobs_per_canonical_size = 8;
  append_rows("stream", stream, {0, 1, 5}, out);

  append_rows("baseline",
              small_config(workload::WorkloadMonotonicity::BaselineOnly),
              {0, 1}, out);
  append_rows("none", small_config(workload::WorkloadMonotonicity::None),
              {0, 1}, out);

  ExperimentConfig lublin;
  lublin.seed = 77;
  lublin.trace_model = ExperimentConfig::TraceModel::LublinFeitelson;
  lublin.gen.params.num_gsps = 8;
  lublin.task_sizes = {16, 64};
  append_rows("lublin", lublin, {0, 1}, out);

  // Deadlines 100x below the Table I range: the probe rejects draws
  // until the relaxation has widened them.
  ExperimentConfig tight = small_config(workload::WorkloadMonotonicity::Strict);
  tight.gen.params.deadline_factor_lo = 0.003;
  tight.gen.params.deadline_factor_hi = 0.02;
  tight.gen.max_feasibility_redraws = 3;
  tight.gen.relax_step = 2.0;
  append_rows("tight", tight, {0}, out);

  return out;
}

// clang-format off
const std::vector<Row> kScenarioPins = {
    {"paper n256 r0", 13677, 0x217b196254e00d3cULL, 0x5437fb36ee3b9b4fULL, 0x95c71c8c6affff17ULL, 0x286dae7fc522919cULL, 0x40bfa468faa10396ULL, 0x40f6d341e64132d4ULL, 0x4e8e563fafe4dfa6ULL, 0U, false, 0x3d0337eefe46f52ULL, 0xaf94d788821eb0cfULL},
    {"paper n256 r1", 31195, 0xcc317ea2e93ffe3dULL, 0xd324462e67bc2a90ULL, 0x4c9446c75be1af37ULL, 0x7668a5ffa8d485d5ULL, 0x40aae63a34cd8e93ULL, 0x40f745d7a89d3d51ULL, 0x4099a8a09e32681bULL, 0U, false, 0xa96b4499d2827a6bULL, 0x222fe2f279681be3ULL},
    {"paper n256 r7", 32669, 0x98e1d18fdf5a2fedULL, 0x5f38a01282d68d19ULL, 0xb8b63026dfb83166ULL, 0x6cc2ad72bf9e4b3bULL, 0x40b63ad640e82e7eULL, 0x40f048ed02ea1800ULL, 0x754268cc10a051e8ULL, 0U, false, 0x12d910fa7ec5239ULL, 0xb90234de6ab6a830ULL},
    {"paper n512 r0", 5911, 0xdefa5dca9614be01ULL, 0xe88937a66885894cULL, 0x8765df0d29ec4154ULL, 0x3c15b2778a963d33ULL, 0x40c36908b7007fbbULL, 0x41047ed70929bdc5ULL, 0xae46c4a809d12714ULL, 2U, false, 0xa477608b8972a5a7ULL, 0x7611c7e04a62b2d9ULL},
    {"paper n512 r1", 23752, 0x9a1ecd004a36df23ULL, 0xccfc8d18920d9457ULL, 0xbeb38416d0b773c7ULL, 0x53ca7a420bdfb226ULL, 0x40c130b9c948efa4ULL, 0x41055dad4cbd7660ULL, 0x5091aeda1e8979dfULL, 0U, false, 0x90e86c3e28652405ULL, 0x67633df16f833431ULL},
    {"paper n512 r7", 35905, 0x985ccb74bcb42643ULL, 0x5fee15ece2c0066eULL, 0x8e3be2c294a48c94ULL, 0xff010a6970048138ULL, 0x40c966ed5e5eab94ULL, 0x4107755b5641b628ULL, 0xbd07a3ba82f03febULL, 0U, false, 0x5d2b6af396351335ULL, 0x7b3a255fe27e3540ULL},
    {"paper n1024 r0", 24675, 0x9fda71a9ffcd0d2aULL, 0xa6d6b7d100e9b841ULL, 0x6d64d8d53e030c76ULL, 0xc00b1e1decb0bf80ULL, 0x40d4de2212937ff1ULL, 0x4112a2faf205a4a8ULL, 0x6341fcba4f26f6faULL, 0U, false, 0xebee93f868a234e6ULL, 0xb1c2d9ae138efa13ULL},
    {"paper n1024 r1", 2417, 0x88096108faee7fedULL, 0xc436a420095191e4ULL, 0x5bfec343d5d6f2ccULL, 0x3b614d3beb0351feULL, 0x40b2521b152bd09dULL, 0x4113935cdcbde453ULL, 0xbee8cd7647f6954bULL, 1U, false, 0xfc7231939db34da3ULL, 0xe67865716651692aULL},
    {"paper n1024 r7", 3765, 0xe57133bcb57a185bULL, 0xab0a6c3df1b64ba1ULL, 0xca6d2ed03c713aafULL, 0x8a74de10bf4e9a73ULL, 0x40d0d2d9c79006e0ULL, 0x411180636ad5c518ULL, 0xe9a218d2a7bba378ULL, 1U, false, 0xa0fc36a8891e1be5ULL, 0x833757c8b7dd30e0ULL},
    {"paper n2048 r0", 5874, 0x682c41863ffbc760ULL, 0x6cd1e719dc49d70cULL, 0x36d0d136f1ab7b5cULL, 0xc283c98d1e5208abULL, 0x40e103dd5eef8ecaULL, 0x4128d57f8e44e6a2ULL, 0x9097d1570358ba74ULL, 0U, false, 0x1ed9529b8af89a95ULL, 0xee8013f822b3850dULL},
    {"paper n2048 r1", 10102, 0xfc216c0adeef8c2ULL, 0x8e59b9c278f2a5c4ULL, 0x6060d605806e6748ULL, 0x7b5517ff5592471aULL, 0x40ed30b4aa99dccbULL, 0x4122bd2db2bdd1fbULL, 0xd39b6312d03f152bULL, 0U, false, 0x5dc8c819dc0b8812ULL, 0x2365e6246b2f7592ULL},
    {"paper n2048 r7", 12989, 0xc4643b16556b8f11ULL, 0xbeb7d8b3d43e53e2ULL, 0x1ca6cc6ba528a815ULL, 0x64777cc48664c623ULL, 0x40f4415b0162715aULL, 0x41268659bff479a3ULL, 0x906e98967ff44fbdULL, 0U, false, 0xd8fa7d8a1a24b4f4ULL, 0x2f79ed83e3d68eaeULL},
    {"paper n4096 r0", 29242, 0x3ddbd31cb85f99a8ULL, 0xf4aad47f1843fdacULL, 0xec0158e80116bf26ULL, 0x65353f380d81df57ULL, 0x4102399cfce7b039ULL, 0x4135eb5f782d4f8eULL, 0x69f55a6fcbb03ab1ULL, 0U, false, 0x8b68d04259ef5227ULL, 0xb0e382a5dd6ec679ULL},
    {"paper n4096 r1", 39910, 0x622cbe597fd3d2ebULL, 0x801c676147042fe0ULL, 0xf1b4407f6f841a31ULL, 0x56b0e99d7c8f906cULL, 0x40e6d516805cebd0ULL, 0x41324f1f0cbbb3ecULL, 0x3b5c3049eb4ea82bULL, 2U, false, 0x17d72362d655b1ULL, 0xdb736df67a5e3a44ULL},
    {"paper n4096 r7", 23634, 0x6b424bfb640d86f7ULL, 0xcc197e4af1097213ULL, 0x2865d0531ea53e70ULL, 0xf853c407d93eb1b9ULL, 0x4102c64c420373f9ULL, 0x413171c0a3d851efULL, 0xd0aabc256d01d0baULL, 0U, false, 0x12d56d5dcaf032cULL, 0xc75ea876a671aef1ULL},
    {"paper n8192 r0", 327, 0x4fca56d960079820ULL, 0x6408bb84abf084bdULL, 0x44f0e235279cde83ULL, 0x64d35fd3fd72a932ULL, 0x41002489b596d71dULL, 0x41440b269ecac1fbULL, 0x686da93510c689f1ULL, 0U, false, 0xf5e7cba17c090a89ULL, 0x3823dd0bb5ff3efaULL},
    {"paper n8192 r1", 14883, 0x7804c4e5f26047e1ULL, 0x59669012fcd96976ULL, 0x9a02f883242bc0aULL, 0x6a8976e82a97b2acULL, 0x40ffb65425e42de9ULL, 0x414161e73ee94f43ULL, 0x1c0631466214cb66ULL, 0U, false, 0x7cc1dd019271280aULL, 0xe39926bf38972b89ULL},
    {"paper n8192 r7", 12516, 0x2c3c52c61162ff61ULL, 0xf30593b88dad5c80ULL, 0x82ba59f92e26ce99ULL, 0xa91494a047bed571ULL, 0x4101d7413cfa49faULL, 0x4148d7bd1089e55bULL, 0xbef432c83d6e02eaULL, 0U, false, 0xb4f8ac6dc83ea2c5ULL, 0x23f8d4efe3e37f15ULL},
    {"svc n24 r0", 11853, 0x566575acffcc9f9eULL, 0x584d1e9506ed81efULL, 0xc2535ba6bc231239ULL, 0x531db997851fe85eULL, 0x4097508eb2171a28ULL, 0x40bb8afbcfa73bc2ULL, 0xf165b86d0683bc82ULL, 22U, false, 0x2bdcf69c265ef4d8ULL, 0xf057f2001493fa5bULL},
    {"svc n24 r1", 27814, 0xa34ed4ad2a9ea1beULL, 0xb52d714838747b9eULL, 0xdcac09948297ac79ULL, 0x5b554e533846346ULL, 0x40731f66285524f1ULL, 0x40c1ccda8bedd056ULL, 0x9af7ea546c4eb3b6ULL, 10U, false, 0x984a9a67dd8f5f54ULL, 0x2d0e819590acc1c3ULL},
    {"svc n24 r127", 19836, 0x7577fe8b07efc3e3ULL, 0x64923a25190220fbULL, 0x4a481c0bc43830fcULL, 0xc315bfc690d9cef3ULL, 0x4090de546bd7e444ULL, 0x40bfce773aaf5334ULL, 0x84419e5c63890d81ULL, 0U, false, 0x2a138da8096535f8ULL, 0x3f78ce48f9244229ULL},
    {"svc n48 r0", 9102, 0xc0562810ac4d2400ULL, 0xd422ec2ed1795940ULL, 0xf7c2930ec00526e3ULL, 0x737f56acd9231023ULL, 0x4086ffda29214637ULL, 0x40c997a18d6cf6e2ULL, 0x5d0abccd7970fb35ULL, 1U, false, 0x49bca3ff51b01c0bULL, 0x8f0c89d4f9e44b62ULL},
    {"svc n48 r1", 6001, 0x268eb479edb41300ULL, 0xb237a2b9cea9b93dULL, 0xaa853266a7165ab5ULL, 0x5331b945cbff3d0fULL, 0x40990b046217ed10ULL, 0x40d2aa305acc1130ULL, 0xd8697c937374859aULL, 2U, false, 0xf0628c1fa1cebc74ULL, 0x1df8d61a4ef63c18ULL},
    {"svc n48 r127", 28513, 0x5bfa49bf3fe7e2cULL, 0x146e6226ca7aa70cULL, 0xb64c420e69b11918ULL, 0xca50313c46b0e728ULL, 0x40b5a3cfed9e9b35ULL, 0x40d229e3ab55d652ULL, 0xb8650ee4a5e6d479ULL, 0U, false, 0xa519a1c329390e1bULL, 0xd51832f141389a8aULL},
    {"stream n24 r0", 2067, 0x6f8a5478931ceea7ULL, 0xbeaea21c5b7191f3ULL, 0xbb8f0db99e970fabULL, 0x3c9d055becb83a21ULL, 0x4085e3050737c889ULL, 0x40b84b07283ffa94ULL, 0x7d1410c729a4ae81ULL, 4U, false, 0x1d2964703a167943ULL, 0x877a09a17cc31231ULL},
    {"stream n24 r1", 693, 0x44e9ab2cbeb5c950ULL, 0xa9c2347419d5667aULL, 0x793ddcff472a5380ULL, 0xbc45b15755ccea96ULL, 0x408a4db409bc9189ULL, 0x40c0fc8236f8e242ULL, 0x6f8ae7f4c2438767ULL, 0U, false, 0x8153c2be7990b582ULL, 0xf72661f31207acb4ULL},
    {"stream n24 r5", 693, 0xdcf22a43a1ca275ULL, 0x90fe0e06b0871e70ULL, 0xf673c977da8e9f2aULL, 0xaaeed76566693725ULL, 0x40871bef8dd1f9f8ULL, 0x40bb63799345f905ULL, 0x2fc525d78908db45ULL, 0U, false, 0xd1342c75daefa9e0ULL, 0xfc267c6c8f11cc74ULL},
    {"stream n48 r0", 1856, 0x83f2fe382ce9402fULL, 0xb5476090c7214339ULL, 0xd75eedf576fe0db5ULL, 0x600b0261a1e76260ULL, 0x409b84d3ed6b7a33ULL, 0x40d0f57014af601eULL, 0xd59b6c5c772441d5ULL, 28U, false, 0x86b13e7e8e4c92a9ULL, 0xf66684f33ceea175ULL},
    {"stream n48 r1", 1112, 0xf77ee328e3c43b0eULL, 0xa24df9fbf74a8c01ULL, 0x3fcbc9772c11d779ULL, 0x7f2db828d2ce7016ULL, 0x40b627d8056289beULL, 0x40cc0d2edcc6b714ULL, 0xf95495a85702e8ULL, 6U, false, 0x4abfdfcf6de2c8c2ULL, 0x386b8c112d21e81ULL},
    {"stream n48 r5", 1038, 0x9e48b5a57ad56e27ULL, 0xcc9920a9dd0c85e1ULL, 0x16987b81cc4b2060ULL, 0x35a5b63a9a86927fULL, 0x40a4ac9f3120a6e0ULL, 0x40d15bbb03cd5cecULL, 0xe86fa47b9f421b1bULL, 2U, false, 0x52ee0cec340d946ULL, 0xd91ea6026e6828f0ULL},
    {"baseline n32 r0", 1394, 0xc0b7192716f32497ULL, 0xdea475866a76838ULL, 0x14ec1f626a5d9579ULL, 0xc0b76e275ff4e9c6ULL, 0x40a07ec26e7e40b1ULL, 0x40c1af91cecf96adULL, 0x77d37c25f4ec65efULL, 60U, true, 0x410de0c6a9049bfULL, 0x68dfc34acf99baadULL},
    {"baseline n32 r1", 672, 0x5ba12817c09259e3ULL, 0x2be4a8f2ed0b9d4eULL, 0xb8fdf49e66492978ULL, 0xd2d8465760524ea1ULL, 0x40806a3879adbe5dULL, 0x40cb26a2235b556fULL, 0xb9783ca81c04c52cULL, 72U, true, 0x4da5ad94a6faf4f6ULL, 0xd2b73c71335f0c6bULL},
    {"baseline n512 r0", 1214, 0xf4bae7936892c471ULL, 0x3dd421cbb9508095ULL, 0xc80f49051627f75eULL, 0x77051d1d9d166036ULL, 0x40e0b4ebf006544aULL, 0x410048c5e2ea31c5ULL, 0x76cbd170f6cd0549ULL, 6U, false, 0x8287aad59d9e3ca7ULL, 0xc025eb298d4a29beULL},
    {"baseline n512 r1", 2723, 0x87dc9d16c1ead96bULL, 0xef53d481c63a17e7ULL, 0x669730ad5626c093ULL, 0x95a47e3a88905c42ULL, 0x40c222700c706d63ULL, 0x4101f910bb132f80ULL, 0xf22b0896e88f96e4ULL, 3U, false, 0xbc6b9f6fcbecebf5ULL, 0xc650be439b463cb4ULL},
    {"none n32 r0", 1394, 0xf3e2f1b381bade95ULL, 0xdea475866a76838ULL, 0x14ec1f626a5d9579ULL, 0xc0b76e275ff4e9c6ULL, 0x40a07ec26e7e40b1ULL, 0x40c1af91cecf96adULL, 0x77d37c25f4ec65efULL, 60U, true, 0x410de0c6a9049bfULL, 0x68dfc34acf99baadULL},
    {"none n32 r1", 672, 0x6a1b36ec16b7948dULL, 0x2be4a8f2ed0b9d4eULL, 0xb8fdf49e66492978ULL, 0xd2d8465760524ea1ULL, 0x40806a3879adbe5dULL, 0x40cb26a2235b556fULL, 0xb9783ca81c04c52cULL, 72U, true, 0x4da5ad94a6faf4f6ULL, 0xd2b73c71335f0c6bULL},
    {"none n512 r0", 1214, 0x1a9bcb1faebb215bULL, 0x3dd421cbb9508095ULL, 0xc80f49051627f75eULL, 0x77051d1d9d166036ULL, 0x40e0b4ebf006544aULL, 0x410048c5e2ea31c5ULL, 0x76cbd170f6cd0549ULL, 6U, false, 0x8287aad59d9e3ca7ULL, 0xc025eb298d4a29beULL},
    {"none n512 r1", 2723, 0xb2aab5ffc4a7423cULL, 0xef53d481c63a17e7ULL, 0x669730ad5626c093ULL, 0x95a47e3a88905c42ULL, 0x40c222700c706d63ULL, 0x4101f910bb132f80ULL, 0xf22b0896e88f96e4ULL, 3U, false, 0xbc6b9f6fcbecebf5ULL, 0xc650be439b463cb4ULL},
    {"lublin n16 r0", 3734, 0xaa51f0cfcc9347a7ULL, 0xa2d3efb115019d1aULL, 0xa21922a08ad5a77bULL, 0x120bd364b8608a4cULL, 0x407a9f93cb25c953ULL, 0x40af19bc156d3326ULL, 0xf80f4bf8e762b8b0ULL, 0U, false, 0xd0f725f2a64f4bb8ULL, 0xf07bbe6fe77a7d38ULL},
    {"lublin n16 r1", 12115, 0x28955c266bb9e341ULL, 0x3cf736eb1f2158d4ULL, 0xa2ec76accf11bb74ULL, 0x71483d9db9acc80cULL, 0x4070f53507a73dbdULL, 0x40b2a200178dcb29ULL, 0xb6dd85a7aba05d00ULL, 5U, false, 0x84158de51b9b87dbULL, 0x27b52b3f834abab7ULL},
    {"lublin n64 r0", 1147, 0x125d488f4e71050bULL, 0x9736f7a4ffea4ea6ULL, 0x906bc82136826dd8ULL, 0x44e73845b55f7b1fULL, 0x408cf9c6a2e9bec9ULL, 0x40d849fe1379d121ULL, 0x994047fcccd5100aULL, 1U, false, 0x4ba76f7869d98184ULL, 0xc581cc97fbd0c9b6ULL},
    {"lublin n64 r1", 19378, 0xec72502f2b6eb284ULL, 0x5343fafe3ff8bfffULL, 0xaf4667a265897182ULL, 0xc2b65e75f34034d4ULL, 0x409279b67cd2941eULL, 0x40d19188bdfbe7e9ULL, 0x56c2e079a5d0fdULL, 6U, false, 0xafb140823b0ce860ULL, 0x3e3aa317c809bd29ULL},
    {"tight n32 r0", 1394, 0xe1bed11c6965ba57ULL, 0xdea475866a76838ULL, 0x14ec1f626a5d9579ULL, 0xc0b76e275ff4e9c6ULL, 0x40a09812b8fe6b79ULL, 0x412bd3094b53242eULL, 0xe7285f2445c779fdULL, 22U, true, 0x410de0c6a9049bfULL, 0x68dfc34acf99baadULL},
    {"tight n512 r0", 1214, 0x7fdcb63d70f15a09ULL, 0x3dd421cbb9508095ULL, 0xc80f49051627f75eULL, 0x77051d1d9d166036ULL, 0x40e48ee4d90b6d44ULL, 0x41743a4814dab763ULL, 0x136a81e6eb32ea11ULL, 21U, true, 0x8287aad59d9e3ca7ULL, 0xc025eb298d4a29beULL},
};
// clang-format on

TEST(ScenarioPinTest, EveryScenarioIsPinned) {
  const std::vector<Row> got = scenario_table();
  std::ostringstream actual;
  for (const Row& r : got) actual << format(r) << "\n";
  ASSERT_EQ(got.size(), kScenarioPins.size())
      << "actual table:\n" << actual.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kScenarioPins[i])
        << "want " << format(kScenarioPins[i]) << "\n got  " << format(got[i]);
  }
}

TEST(ScenarioPinTest, AtlasTraceIsPinned) {
  trace::AtlasSynthOptions opts;
  opts.num_jobs = 2000;
  opts.size_runtime_exponent = -0.2;
  const trace::Trace t = trace::generate_atlas_like(opts, 99);
  pin::Fnv1a h;
  for (const trace::SwfJob& j : t.jobs) {
    for (const std::int64_t v :
         {j.job_number, j.submit_time, j.wait_time, j.allocated_processors,
          j.requested_processors, static_cast<std::int64_t>(j.status),
          j.user_id, j.group_id, j.executable_number, j.queue_number,
          j.partition_number}) {
      h.add(v);
    }
    for (const double v : {j.run_time, j.avg_cpu_time, j.requested_time,
                           j.used_memory_kb, j.requested_memory_kb}) {
      h.add(v);
    }
  }
  EXPECT_EQ(h.value(), 0x2be04f2388b6b8edULL)
      << std::hex << "actual: 0x" << h.value() << "ULL";
}

}  // namespace
}  // namespace svo::sim
