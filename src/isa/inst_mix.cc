#include "isa/inst_mix.h"

#include "common/log.h"

namespace mapp::isa {

std::string
instClassName(InstClass c)
{
    switch (c) {
      case InstClass::MemRead: return "mem_rd";
      case InstClass::MemWrite: return "mem_wr";
      case InstClass::Control: return "ctrl";
      case InstClass::IntAlu: return "arith";
      case InstClass::FpAlu: return "fp";
      case InstClass::Stack: return "stack";
      case InstClass::Shift: return "shift";
      case InstClass::String: return "string";
      case InstClass::Simd: return "sse";
      default: break;
    }
    panic("instClassName: invalid class");
}

void
InstMix::add(InstClass c, InstCount n)
{
    counts_[static_cast<std::size_t>(c)] += n;
}

InstCount
InstMix::count(InstClass c) const
{
    return counts_[static_cast<std::size_t>(c)];
}

InstCount
InstMix::total() const
{
    InstCount t = 0;
    for (auto v : counts_)
        t += v;
    return t;
}

double
InstMix::percent(InstClass c) const
{
    return fraction(c) * 100.0;
}

double
InstMix::fraction(InstClass c) const
{
    const InstCount t = total();
    if (t == 0)
        return 0.0;
    return static_cast<double>(count(c)) / static_cast<double>(t);
}

InstMix&
InstMix::operator+=(const InstMix& rhs)
{
    for (std::size_t i = 0; i < kNumInstClasses; ++i)
        counts_[i] += rhs.counts_[i];
    return *this;
}

InstMix
InstMix::scaled(InstCount factor) const
{
    InstMix out;
    for (std::size_t i = 0; i < kNumInstClasses; ++i)
        out.counts_[i] = counts_[i] * factor;
    return out;
}

}  // namespace mapp::isa
