#include "core/resolve.h"

#include "check/schedule_verifier.h"
#include "common/log.h"

namespace mmwave::core {

ResolveResult resolve(const net::Network& net,
                      const std::vector<video::LinkDemand>& demands,
                      const CgCheckpoint& checkpoint,
                      const CgOptions& cg_options) {
  ResolveResult result;
  if (checkpoint.fingerprint != instance_fingerprint(net, demands)) {
    result.checkpoint_status = common::Status::Error(
        common::ErrorCode::kInvalidInput,
        "checkpoint fingerprint differs from the current instance");
    MMWAVE_LOG_INFO << "resolve: " << result.checkpoint_status.message()
                    << "; cold start";
    result.cg = solve_column_generation(net, demands, cg_options);
    return result;
  }

  // Legality must agree with the solve, so the verifier inherits its
  // layer-split setting.
  check::VerifyOptions verify;
  verify.allow_layer_split = cg_options.exact.allow_layer_split;
  const check::ScheduleVerifier verifier(net, verify);
  CgOptions warm = cg_options;
  warm.warm_pool.clear();
  for (const sched::Schedule& column : checkpoint.pool) {
    if (verifier.verify(column).ok()) warm.warm_pool.push_back(column);
  }
  MMWAVE_LOG_INFO << "resolve: " << warm.warm_pool.size() << " of "
                  << checkpoint.pool.size() << " pooled columns verified";
  result.used_checkpoint = true;
  result.cg = solve_column_generation(net, demands, warm);
  return result;
}

ResolveResult resolve_from_file(const std::string& path,
                                const net::Network& net,
                                const std::vector<video::LinkDemand>& demands,
                                const CgOptions& cg_options) {
  common::Expected<CgCheckpoint> loaded = load_checkpoint(path);
  if (!loaded.ok()) {
    MMWAVE_LOG_WARN << "resolve: checkpoint '" << path
                    << "' unusable, cold start: "
                    << loaded.status().message();
    ResolveResult result;
    result.checkpoint_status = loaded.status();
    result.cg = solve_column_generation(net, demands, cg_options);
    return result;
  }
  return resolve(net, demands, loaded.value(), cg_options);
}

}  // namespace mmwave::core
