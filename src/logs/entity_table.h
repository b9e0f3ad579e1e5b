#pragma once

// Interning table mapping entity names (user names, PC names, file
// paths, domains) to dense 32-bit ids and back.
//
// Ids are handed out densely in first-seen order, so every artifact
// keyed by id (catalogs, spool files, ledgers) depends only on the order
// names arrive, never on the hash. Each name is stored once, in the
// id -> name vector; the index is a flat open-addressing table of
// (id, hash) slots over it, probed linearly and kept at most half full.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace acobe {

class EntityTable {
 public:
  /// Returns the id for `name`, interning it if new. `name` may view
  /// any buffer; the table keeps its own copy.
  std::uint32_t Intern(std::string_view name);

  /// Returns the id for `name` or kInvalidId (0xffffffff) if absent.
  std::uint32_t Lookup(std::string_view name) const;

  /// Name for an id previously returned by Intern. Throws on bad id.
  const std::string& NameOf(std::uint32_t id) const;

  std::size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

 private:
  struct Slot {
    std::uint32_t id;    // kEmptySlot when free
    std::uint32_t hash;  // of names_[id]; growth reinserts without rehashing
  };

  /// Index of the slot holding `name`, or of the free slot where it
  /// belongs. Requires a non-empty `slots_`.
  std::size_t Find(std::string_view name, std::uint32_t hash) const;
  void Grow();

  std::vector<std::string> names_;
  std::vector<Slot> slots_;  // size 0 or a power of two
};

}  // namespace acobe
