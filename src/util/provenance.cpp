#include "util/provenance.hpp"

#ifndef DTM_GIT_SHA
#define DTM_GIT_SHA "unknown"
#endif
#ifndef DTM_BUILD_TYPE
#define DTM_BUILD_TYPE "unknown"
#endif
#ifndef DTM_COMPILER
#define DTM_COMPILER "unknown"
#endif

namespace dtm {

std::map<std::string, std::string> build_provenance() {
  return {
      {"git_sha", DTM_GIT_SHA},
      {"build_type", DTM_BUILD_TYPE},
      {"compiler", DTM_COMPILER},
  };
}

}  // namespace dtm
