#ifndef HERMES_COMMON_FLAT_TABLE_H_
#define HERMES_COMMON_FLAT_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace hermes {

/// Open-addressing id -> V table: linear probing from the salted home
/// slot, backward-shift deletion (no tombstones), capacity doubled at half
/// load. Entries move on insert and erase, so pointers returned by
/// Find/Insert die at the next mutation. Unlike HashMap it
/// allocates only when it grows, so a warmed-up table inserts and erases
/// with no heap traffic. Slots are homed by the salted hash, so iteration
/// order is salt-dependent exactly like HashMap's: detlint's
/// unordered-iter rule covers FlatTable, and callers sort before any
/// decision. V must be default-constructible and movable (erase shifts
/// entries).
template <typename V>
class FlatTable {
  struct Slot {
    uint64_t id;
    V value;
    bool used;
  };

 public:
  V* Find(uint64_t id) {
    const size_t i = IndexOf(id);
    return i == slots_.size() ? nullptr : &slots_[i].value;
  }
  const V* Find(uint64_t id) const {
    const size_t i = IndexOf(id);
    return i == slots_.size() ? nullptr : &slots_[i].value;
  }

  /// Inserts a value-initialized entry for an absent `id`.
  V& Insert(uint64_t id) {
    assert(IndexOf(id) == slots_.size() && "FlatTable::Insert of a present id");
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = Home(id);
    while (slots_[i].used) i = (i + 1) & mask;
    slots_[i] = Slot{id, V{}, true};
    ++size_;
    return slots_[i].value;
  }

  /// Erases a present `id`.
  void Erase(uint64_t id) {
    size_t hole = IndexOf(id);
    assert(hole != slots_.size() && "FlatTable::Erase of an absent id");
    // Backward shift: pull each later entry of the probe run into the hole
    // unless its home lies cyclically in (hole, j], where it must stay.
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
      const size_t home = Home(slots_[j].id);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].used = false;
    slots_[hole].value = V{};
    --size_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visits entries as (id, value) pairs in salted slot order.
  class const_iterator {
   public:
    std::pair<uint64_t, const V&> operator*() const {
      return {(*slots_)[i_].id, (*slots_)[i_].value};
    }
    const_iterator& operator++() {
      ++i_;
      Skip();
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    friend class FlatTable;
    const_iterator(const std::vector<Slot>* slots,
                   size_t i)
        : slots_(slots), i_(i) {
      Skip();
    }
    void Skip() {
      while (i_ < slots_->size() && !(*slots_)[i_].used) ++i_;
    }
    const std::vector<Slot>* slots_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(&slots_, 0); }
  const_iterator end() const { return const_iterator(&slots_, slots_.size()); }

 private:
  size_t Home(uint64_t id) const {
    return static_cast<size_t>(detail::SaltAndFinalize(id)) &
           (slots_.size() - 1);
  }
  /// Slot of `id`, or slots_.size() when absent.
  size_t IndexOf(uint64_t id) const {
    if (size_ == 0) return slots_.size();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(id); slots_[i].used; i = (i + 1) & mask) {
      if (slots_[i].id == id) return i;
    }
    return slots_.size();
  }
  void Grow() {
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(slots_.empty() ? 16 : 2 * slots_.size()));
    const size_t mask = slots_.size() - 1;
    // Rehash only places entries; it decides nothing, so walking the old
    // slots in (salted) order is harmless.
    for (Slot& s : old) {
      if (!s.used) continue;
      size_t i = Home(s.id);
      while (slots_[i].used) i = (i + 1) & mask;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace hermes

#endif  // HERMES_COMMON_FLAT_TABLE_H_
