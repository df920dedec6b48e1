// Textual IR dump — the debugging surface of the compiler half of this
// repository. The format is line-oriented and stable, so tests can assert
// on it and humans can diff two transform pipelines.
//
//   func face_detect {
//     port in pixel :16
//     array window[256] :16 banks=256
//     loop 1 "fill" parent=0 trip=256 unroll=8 pipelined ii=1
//     %3 = sub %1, %2 :16 loop=1 line=111
//     ...
//   }
#pragma once

#include <string>

#include "ir/module.hpp"

namespace hcp::ir {

struct PrintOptions {
  bool sourceLines = true;   ///< append line=N provenance
  bool loopBodies = true;    ///< annotate ops with loop=N
  bool unrollOrigins = false;///< append origin=N/replica=N for unroll copies
};

/// Renders a whole module (top marked).
std::string print(const Module& mod, const PrintOptions& options = {});

}  // namespace hcp::ir
