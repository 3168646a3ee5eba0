// The host a run was measured on, printed with every result: CPU model,
// core count, pool size, SIMD tier, compiler, build type and source
// revision.
#ifndef GELC_E2E_CONTEXT_H_
#define GELC_E2E_CONTEXT_H_

#include <string>
#include <utility>
#include <vector>

namespace gelc::e2e {

/// (key, value) pairs in print order. `revision` is whatever the caller
/// knows of the source (a git SHA, or "unknown").
std::vector<std::pair<std::string, std::string>> HostContext(
    const std::string& revision);

}  // namespace gelc::e2e

#endif  // GELC_E2E_CONTEXT_H_
