// traffic.hpp — deterministic synthetic payload bytes.
//
// Substitutes for the production traces the paper's evaluation would need
// (see DESIGN.md): payload fillers with optional planted byte signatures
// (ground truth for the intrusion-detection use case). Arrival processes
// live in the workload plane (workload.hpp).
#pragma once

#include <cstdint>
#include <span>

namespace onfiber::net {

/// Fill `out` with pseudo-random bytes from `seed` (deterministic).
void fill_random_bytes(std::span<std::uint8_t> out, std::uint64_t seed);

/// Plant `signature` into `payload` at `offset` (for IDS ground truth).
/// Requires offset + signature.size() <= payload.size(); throws
/// std::invalid_argument otherwise.
void plant_signature(std::span<std::uint8_t> payload,
                     std::span<const std::uint8_t> signature,
                     std::size_t offset);

}  // namespace onfiber::net
