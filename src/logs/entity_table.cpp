#include "logs/entity_table.h"

#include <functional>
#include <stdexcept>

namespace acobe {
namespace {

constexpr std::uint32_t kEmptySlot = 0xffffffffu;
constexpr std::size_t kMinSlots = 16;

std::uint32_t HashName(std::string_view name) {
  const std::size_t h = std::hash<std::string_view>{}(name);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

std::size_t EntityTable::Find(std::string_view name,
                              std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.id == kEmptySlot ||
        (s.hash == hash && names_[s.id] == name)) {
      return i;
    }
  }
}

void EntityTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kMinSlots : 2 * old.size(),
                Slot{kEmptySlot, 0});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kEmptySlot) continue;
    std::size_t i = s.hash & mask;
    while (slots_[i].id != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

std::uint32_t EntityTable::Intern(std::string_view name) {
  // Keep the table at most half full so probe runs stay short.
  if (2 * (names_.size() + 1) > slots_.size()) Grow();
  const std::uint32_t hash = HashName(name);
  Slot& slot = slots_[Find(name, hash)];
  if (slot.id != kEmptySlot) return slot.id;
  if (names_.size() >= kEmptySlot) {
    throw std::length_error("EntityTable::Intern: id space exhausted");
  }
  // Copy before growing names_: `name` may view one of its strings.
  std::string copy(name);
  slot = Slot{static_cast<std::uint32_t>(names_.size()), hash};
  names_.push_back(std::move(copy));
  return slot.id;
}

std::uint32_t EntityTable::Lookup(std::string_view name) const {
  if (slots_.empty()) return kEmptySlot;
  return slots_[Find(name, HashName(name))].id;
}

const std::string& EntityTable::NameOf(std::uint32_t id) const {
  if (id >= names_.size()) {
    throw std::out_of_range("EntityTable::NameOf: bad id");
  }
  return names_[id];
}

}  // namespace acobe
