#include "sim/memory.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace emask::sim {
namespace {

std::string hex(std::uint32_t address) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08X", address);
  return buf;
}

}  // namespace

DataMemory::DataMemory(const assembler::Program& program,
                       std::size_t size_bytes)
    : size_(size_bytes) {
  if (program.data.size() > size_bytes) {
    throw std::invalid_argument("DataMemory: image larger than memory");
  }
  // Pages the image does not reach alias the shared zero page; only the
  // image's own pages are allocated (value-initialized, then filled).
  const std::size_t num_pages = (size_bytes + kPageBytes - 1) / kPageBytes;
  pages_.assign(num_pages, zero_page());
  for (std::size_t off = 0; off < program.data.size(); off += kPageBytes) {
    auto page = std::make_shared<Page>();
    std::copy_n(program.data.begin() + static_cast<std::ptrdiff_t>(off),
                std::min(kPageBytes, program.data.size() - off), page->begin());
    pages_[off / kPageBytes] = std::move(page);
  }
}

const std::shared_ptr<DataMemory::Page>& DataMemory::zero_page() {
  // Never written: this reference keeps use_count() > 1 for as long as the
  // process runs, so writable_page() always clones it.
  static const std::shared_ptr<Page> page = std::make_shared<Page>();
  return page;
}

void DataMemory::check(std::uint32_t address) const {
  if (address % 4 != 0) {
    throw std::runtime_error("DataMemory: unaligned 4-byte word access at " +
                             hex(address));
  }
  if (address < base() || address - base() + 4 > size_) {
    throw std::runtime_error(
        "DataMemory: 4-byte access outside memory at " + hex(address) +
        " (valid range [" + hex(base()) + ", " +
        hex(base() + static_cast<std::uint32_t>(size_)) + "))");
  }
}

bool DataMemory::shares_page_with(const DataMemory& other,
                                  std::uint32_t address) const {
  check(address);
  other.check(address);
  const std::size_t index = (address - base()) / kPageBytes;
  return pages_[index].get() == other.pages_[index].get();
}

void poke_symbol(DataMemory& memory, const assembler::Program& program,
                 const SymbolPoke& poke) {
  const assembler::DataSymbol* s = program.find_symbol(poke.symbol);
  if (s == nullptr) {
    throw std::invalid_argument("poke: program has no data symbol '" +
                                poke.symbol + "'");
  }
  if (poke.words.size() > s->size_bytes / 4) {
    throw std::invalid_argument(
        "poke: symbol '" + poke.symbol + "' holds " +
        std::to_string(s->size_bytes / 4) + " words, not " +
        std::to_string(poke.words.size()));
  }
  for (std::size_t i = 0; i < poke.words.size(); ++i) {
    memory.store_word(s->address + static_cast<std::uint32_t>(i) * 4,
                      poke.words[i]);
  }
}

}  // namespace emask::sim
