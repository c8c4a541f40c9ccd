/**
 * @file
 * The instruction-class taxonomy used by the MICA-style profiler and by
 * both performance simulators.
 *
 * The classes mirror Table IV / Figure 12 of the paper: arithmetic (ALU),
 * floating point, SSE/SIMD, memory reads, memory writes, stack push/pop,
 * string operations, multiply/shift, and control/branch instructions.
 * Table IV's "MEM" feature is the sum of the read and write classes.
 */

#ifndef MAPP_ISA_INST_CLASS_H
#define MAPP_ISA_INST_CLASS_H

#include <array>
#include <cstddef>
#include <string>

namespace mapp::isa {

/** Dynamic-instruction classes (order matches Fig. 12's columns). */
enum class InstClass : std::size_t {
    MemRead = 0,  ///< loads
    MemWrite,     ///< stores
    Control,      ///< branches, calls, returns
    IntAlu,       ///< integer arithmetic/logic ("arith")
    FpAlu,        ///< scalar floating point
    Stack,        ///< push/pop and frame manipulation
    Shift,        ///< multiplies and shifts
    String,       ///< string/memcpy-style ops
    Simd,         ///< SSE/AVX vector instructions
    NumClasses
};

/** Number of instruction classes. */
inline constexpr std::size_t kNumInstClasses =
    static_cast<std::size_t>(InstClass::NumClasses);

/** Iterable list of all classes. */
inline constexpr std::array<InstClass, kNumInstClasses> kAllInstClasses = {
    InstClass::MemRead, InstClass::MemWrite, InstClass::Control,
    InstClass::IntAlu,  InstClass::FpAlu,    InstClass::Stack,
    InstClass::Shift,   InstClass::String,   InstClass::Simd,
};

/** Short machine-readable name (matches Fig. 12 column labels). */
std::string instClassName(InstClass c);

}  // namespace mapp::isa

#endif  // MAPP_ISA_INST_CLASS_H
