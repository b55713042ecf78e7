#include "ft/recovery_policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace approxhadoop::ft {

constexpr std::pair<FailureMode, const char*> kFailureModeNames[] = {
    {FailureMode::kRetry, "retry"},
    {FailureMode::kAbsorb, "absorb"},
    {FailureMode::kAuto, "auto"},
};

const char*
toString(FailureMode mode)
{
    for (const auto& [value, name] : kFailureModeNames) {
        if (value == mode) {
            return name;
        }
    }
    return "?";
}

FailureMode
parseFailureMode(const std::string& name)
{
    for (const auto& [value, text] : kFailureModeNames) {
        if (name == text) {
            return value;
        }
    }
    throw std::invalid_argument("failure mode must be retry, absorb, or "
                                "auto (got '" +
                                name + "')");
}

double
RecoveryPolicy::backoffDelay(uint32_t failed_attempts) const
{
    // Closed form with the exponent clamped *before* it is used: a task
    // that has failed billions of times (or a caller passing a huge
    // attempt index) must cost O(1) and return the cap, not spin in a
    // multiplication loop or overflow to inf. 1024 doublings already
    // overflow any double, so the clamp never changes a real delay.
    if (failed_attempts <= 1) {
        return std::min(backoff_initial, backoff_cap);
    }
    constexpr uint32_t kMaxExponent = 1024;
    uint32_t exponent = std::min(failed_attempts - 1, kMaxExponent);
    double delay =
        backoff_initial * std::pow(backoff_factor, static_cast<double>(exponent));
    if (!(delay < backoff_cap)) {  // negated: NaN/inf also land on the cap
        return backoff_cap;
    }
    return delay;
}

}  // namespace approxhadoop::ft
