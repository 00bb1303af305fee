#include "sim/config.hpp"

#include "core/rvof.hpp"
#include "core/tvof.hpp"

namespace svo::sim {

std::unique_ptr<core::VoFormationMechanism> make_mechanism(
    MechanismKind kind, const ip::AssignmentSolver& solver,
    const core::MechanismConfig& config) {
  switch (kind) {
    case MechanismKind::Rvof:
      return std::make_unique<core::RvofMechanism>(solver, config);
    case MechanismKind::Tvof:
      break;
  }
  return std::make_unique<core::TvofMechanism>(solver, config);
}

}  // namespace svo::sim
