#include "core/approx_input_format.h"

#include <algorithm>
#include <cmath>

namespace approxhadoop::core {

std::vector<uint64_t>
ApproxTextInputFormat::select(uint64_t /*block*/, uint64_t block_items,
                              double sampling_ratio, Rng& rng) const
{
    if (sampling_ratio >= 1.0) {
        std::vector<uint64_t> all(block_items);
        for (uint64_t i = 0; i < block_items; ++i) {
            all[i] = i;
        }
        return all;
    }
    uint64_t m = static_cast<uint64_t>(
        std::llround(sampling_ratio * static_cast<double>(block_items)));
    m = std::clamp<uint64_t>(m, std::min(min_items_, block_items),
                             block_items);
    return rng.sortedSampleWithoutReplacement(block_items, m);
}

}  // namespace approxhadoop::core
