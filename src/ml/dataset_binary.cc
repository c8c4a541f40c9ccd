#include "ml/dataset_binary.h"

namespace mapp::ml {

void
hashDataset(cache::Hasher& hasher, const Dataset& data)
{
    hasher.add(static_cast<std::uint64_t>(data.numFeatures()));
    for (const auto& name : data.featureNames())
        hasher.add(std::string_view(name));
    hasher.add(static_cast<std::uint64_t>(data.size()));
    for (std::size_t i = 0; i < data.size(); ++i) {
        hasher.add(std::span<const double>(data.row(i)));
        hasher.add(data.target(i));
        hasher.add(std::string_view(data.group(i)));
    }
}

}  // namespace mapp::ml
