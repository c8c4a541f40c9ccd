/**
 * @file
 * Per-class dynamic-instruction counters and mix percentages.
 */

#ifndef MAPP_ISA_INST_MIX_H
#define MAPP_ISA_INST_MIX_H

#include <array>
#include <string>

#include "common/types.h"
#include "isa/inst_class.h"

namespace mapp::isa {

/**
 * A vector of per-class dynamic instruction counts, with helpers to turn
 * them into the MICA-style mix percentages used as predictor features.
 */
class InstMix
{
  public:
    /** All counters start at zero. */
    InstMix() { counts_.fill(0); }

    /** Add @p n instructions of class @p c. */
    void add(InstClass c, InstCount n = 1);

    /** Raw count for one class. */
    InstCount count(InstClass c) const;

    /** Total dynamic instructions across all classes. */
    InstCount total() const;

    /** Percentage (0-100) of the mix taken by class @p c; 0 if empty. */
    double percent(InstClass c) const;

    /** Fraction (0-1) of the mix taken by class @p c; 0 if empty. */
    double fraction(InstClass c) const;

    /** Element-wise accumulation. */
    InstMix& operator+=(const InstMix& rhs);

    /** Scale all counts by an integer factor (batch replication). */
    InstMix scaled(InstCount factor) const;

    /** Equality of all counters. */
    bool operator==(const InstMix& rhs) const = default;

  private:
    std::array<InstCount, kNumInstClasses> counts_;
};

}  // namespace mapp::isa

#endif  // MAPP_ISA_INST_MIX_H
