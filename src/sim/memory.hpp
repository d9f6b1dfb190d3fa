// Flat on-chip data SRAM of the modeled smart-card core.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "assembler/program.hpp"

namespace emask::sim {

/// Byte-addressable data memory based at assembler::kDataBase.  Word
/// accesses must be 4-byte aligned; violations and out-of-range accesses
/// throw (they indicate a broken program, not a modeled trap).
///
/// Storage is paged and copy-on-write: copying a DataMemory shares its
/// pages, and a store to a shared page clones just that page.  A fresh
/// memory allocates only the pages its data image covers (three for
/// DES); every other page aliases one process-wide, immutable zero page
/// until its first store.  So a cold start costs O(image), not O(memory
/// size), and forking N simulators from one sim::Snapshot costs O(pages
/// actually written) per fork.  Page reference counts are atomic
/// (std::shared_ptr), so concurrent forks from a shared read-only snapshot
/// and concurrent memories sharing the zero page are safe; the bytes of a
/// shared page are never mutated in place.
class DataMemory {
 public:
  explicit DataMemory(const assembler::Program& program,
                      std::size_t size_bytes = 1u << 20);

  // Inline: the pipeline's MEM stage calls these on every load and store.
  [[nodiscard]] std::uint32_t load_word(std::uint32_t address) const {
    const std::size_t off = offset(address);
    std::uint32_t word = 0;
    std::memcpy(&word, pages_[off / kPageBytes]->data() + off % kPageBytes, 4);
    return little_endian(word);
  }
  void store_word(std::uint32_t address, std::uint32_t value) {
    const std::size_t off = offset(address);
    const std::uint32_t word = little_endian(value);
    std::memcpy(writable_page(off / kPageBytes).data() + off % kPageBytes,
                &word, 4);
  }

  [[nodiscard]] std::uint32_t base() const { return assembler::kDataBase; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Copy-on-write bookkeeping: does `this` still share the physical page
  /// holding `address` with `other`?  Exposed for tests and fork-cost
  /// observability; `address` must be in range for both.
  [[nodiscard]] bool shares_page_with(const DataMemory& other,
                                      std::uint32_t address) const;

 private:
  // 4 KiB pages: large enough that the per-access indirection is noise,
  // small enough that a forked DES run (which touches the lr/cd/er/sbval
  // working set plus the cipher area) clones only a few.
  static constexpr std::size_t kPageBytes = 4096;
  static_assert(kPageBytes % 4 == 0, "aligned words must not span pages");
  using Page = std::array<std::uint8_t, kPageBytes>;

  [[nodiscard]] static const std::shared_ptr<Page>& zero_page();
  void check(std::uint32_t address) const;

  /// Byte offset of the aligned, in-range word at `address`; anything else
  /// takes the cold path into check(), which throws.
  [[nodiscard]] std::size_t offset(std::uint32_t address) const {
    if (address % 4 != 0 || address < base() || address - base() + 4 > size_)
        [[unlikely]] {
      check(address);
    }
    return address - base();
  }

  /// The image is little-endian whatever the host's byte order.
  [[nodiscard]] static std::uint32_t little_endian(std::uint32_t word) {
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap32(word);
    }
    return word;
  }

  [[nodiscard]] Page& writable_page(std::size_t page_index) {
    std::shared_ptr<Page>& slot = pages_[page_index];
    // use_count() == 1 means this DataMemory is the sole owner: writing in
    // place is safe.  Shared pages are never mutated — they are replaced by
    // a private clone, so snapshots and sibling forks keep their view.
    if (slot.use_count() > 1) [[unlikely]] {
      slot = std::make_shared<Page>(*slot);
    }
    return *slot;
  }

  std::size_t size_ = 0;  // logical size in bytes (last page may be partial)
  std::vector<std::shared_ptr<Page>> pages_;
};

/// Words to write into one data symbol, from its first word on: a device's
/// per-run input (a DES bit-word block, an AES block, a SHA-1 message).
struct SymbolPoke {
  std::string symbol;
  std::vector<std::uint32_t> words;
};

/// Writes `poke` into `memory`, a memory built from `program`'s image.
/// Throws std::invalid_argument naming the symbol when `program` declares
/// no such data symbol or the symbol holds fewer words than the poke.
void poke_symbol(DataMemory& memory, const assembler::Program& program,
                 const SymbolPoke& poke);

}  // namespace emask::sim
