// Generates a SHA-1 compression-function program in the target assembly
// language: the "other algorithms" workload for the masking framework.
//
// The program absorbs one 512-bit block into the FIPS initial state.  The
// block is annotated `.secret` — the prefix-key MAC setting, where the
// absorbed block contains key material — so the compiler's forward slice
// must cover the whole 80-round computation.
// Unlike DES (bit-per-word, table-driven), SHA-1 is a word-level kernel
// with rotates and the Ch/Maj logic functions, exercising the secure
// and/nor instructions that DES never needs.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "assembler/program.hpp"
#include "sim/memory.hpp"

namespace emask::sha {

[[nodiscard]] std::string generate_sha1_asm(
    const std::array<std::uint32_t, 16>& block);

/// The 16 message words as a poke of the `msg` symbol, so one assembly +
/// compilation serves many runs.
[[nodiscard]] sim::SymbolPoke message_poke(
    const std::array<std::uint32_t, 16>& block);

/// Reads the five digest words from simulated memory.
[[nodiscard]] std::array<std::uint32_t, 5> read_digest(
    const sim::DataMemory& memory, const assembler::Program& program);

}  // namespace emask::sha
