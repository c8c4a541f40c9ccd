/**
 * @file
 * The phase descriptor that connects the instrumented vision workloads to
 * the performance simulators.
 *
 * A KernelPhase is the basic-block-aggregate record one instrumented
 * primitive (convolution, resize, distance matrix, ...) emits: dynamic
 * instruction counts by class, memory traffic and footprint, and the
 * behavioural knobs the simulators need (parallelism, locality, branch
 * divergence). It plays the role the PIN/MICA trace plays in the paper.
 */

#ifndef MAPP_ISA_KERNEL_PHASE_H
#define MAPP_ISA_KERNEL_PHASE_H

#include <string>

#include "common/types.h"
#include "isa/inst_mix.h"

namespace mapp::isa {

/** One profiled execution phase of a workload. */
struct KernelPhase
{
    /** Primitive name, e.g. "convolve2d". */
    std::string name;

    /** Dynamic instruction counts by class. */
    InstMix mix;

    /** Bytes read from memory (traffic, not footprint). */
    Bytes bytesRead = 0;

    /** Bytes written to memory. */
    Bytes bytesWritten = 0;

    /** Distinct bytes touched (working set of the phase). */
    Bytes footprint = 0;

    /**
     * Fraction of the phase's work that is parallelizable (Amdahl's
     * fraction) when the CPU implementation uses OpenMP-style loops.
     */
    double parallelFraction = 1.0;

    /**
     * Number of independent work items (e.g. pixels, keypoints), used by
     * the GPU simulator to size the kernel grid.
     */
    std::uint64_t workItems = 1;

    /**
     * Temporal/spatial locality in [0, 1]; 1 means the phase re-touches a
     * small working set (cache friendly), 0 means streaming access.
     */
    double locality = 0.5;

    /**
     * Branch-divergence factor in [0, 1]; the fraction of control-flow
     * decisions that are data-dependent and would diverge within a warp.
     */
    double branchDivergence = 0.1;

    /**
     * Kernel launches this phase represents (grows when a sampled trace
     * is scaled to a full batch); drives per-launch GPU overheads.
     */
    std::uint64_t launches = 1;

    /**
     * True for host-staging phases (input copies): on the GPU these are
     * host-to-device transfers over PCIe rather than SM work; on the
     * CPU they are ordinary memcpys.
     */
    bool hostStaged = false;

    /** Total dynamic instructions. */
    InstCount instructions() const { return mix.total(); }

    /** Total memory traffic (reads + writes). */
    Bytes traffic() const { return bytesRead + bytesWritten; }

    /**
     * Check invariants (fractions in range, non-zero work for non-empty
     * mixes). @throws FatalError describing the violated invariant.
     */
    void validate() const;
};

}  // namespace mapp::isa

#endif  // MAPP_ISA_KERNEL_PHASE_H
