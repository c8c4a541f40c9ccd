#include "isa/kernel_phase.h"

#include "common/log.h"

namespace mapp::isa {

void
KernelPhase::validate() const
{
    if (parallelFraction < 0.0 || parallelFraction > 1.0)
        fatal("KernelPhase " + name + ": parallelFraction out of [0,1]");
    if (locality < 0.0 || locality > 1.0)
        fatal("KernelPhase " + name + ": locality out of [0,1]");
    if (branchDivergence < 0.0 || branchDivergence > 1.0)
        fatal("KernelPhase " + name + ": branchDivergence out of [0,1]");
    if (workItems == 0)
        fatal("KernelPhase " + name + ": zero work items");
    if (instructions() == 0)
        fatal("KernelPhase " + name + ": empty instruction mix");
}

}  // namespace mapp::isa
