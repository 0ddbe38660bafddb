// Run-provenance manifest: identifies the build that produced an artifact
// (git sha, build type, compiler) so trace files and BENCH_*.json can be
// matched back to a source state. Values are baked in at configure time via
// compile definitions (DTM_GIT_SHA / DTM_BUILD_TYPE / DTM_COMPILER); a
// build outside git stamps "unknown". Callers append run-specific fields
// (seed, config, invocation) on top.
#pragma once

#include <map>
#include <string>

namespace dtm {

/// Build-identity fields: {"git_sha", "build_type", "compiler"}.
std::map<std::string, std::string> build_provenance();

}  // namespace dtm
