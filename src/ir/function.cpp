#include "ir/function.hpp"

namespace hcp::ir {

bool Function::inLoop(OpId opId, LoopId l) const {
  LoopId cur = op(opId).loop;
  while (true) {
    if (cur == l) return true;
    if (cur == kRootRegion) return l == kRootRegion;
    cur = loop(cur).parent;
  }
}

}  // namespace hcp::ir
