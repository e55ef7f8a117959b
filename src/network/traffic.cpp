#include "network/traffic.hpp"

#include <algorithm>
#include <stdexcept>

#include "photonics/rng.hpp"

namespace onfiber::net {

void fill_random_bytes(std::span<std::uint8_t> out, std::uint64_t seed) {
  phot::rng gen(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(gen.below(256));
}

void plant_signature(std::span<std::uint8_t> payload,
                     std::span<const std::uint8_t> signature,
                     std::size_t offset) {
  // Written so no sum can wrap: offset near SIZE_MAX must fail the check.
  if (offset > payload.size() ||
      signature.size() > payload.size() - offset) {
    throw std::invalid_argument("plant_signature: signature out of bounds");
  }
  std::copy(signature.begin(), signature.end(), payload.begin() +
            static_cast<std::ptrdiff_t>(offset));
}

}  // namespace onfiber::net
