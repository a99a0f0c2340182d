#ifndef CATDB_STORAGE_DICT_COLUMN_H_
#define CATDB_STORAGE_DICT_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/bitpacked_vector.h"
#include "storage/dictionary.h"

namespace catdb::storage {

/// A dictionary-encoded, bit-packed column — the storage format of every
/// table column in the engine (mirrors SAP HANA's main storage).
class DictColumn {
 public:
  DictColumn() = default;

  /// Encodes raw values: builds the order-preserving dictionary and packs
  /// codes at the minimum width.
  static DictColumn Encode(const std::vector<int32_t>& values);

  /// Assembles a column from a prebuilt dictionary and explicit codes
  /// (each code must be < dict.size()). Fast path for generators that
  /// produce codes directly.
  static DictColumn FromDictAndCodes(Dictionary dict,
                                     const std::vector<uint32_t>& codes);

  uint64_t size() const { return codes_.size(); }
  const Dictionary& dict() const { return dict_; }
  const BitPackedVector& codes() const { return codes_; }

  /// Host-side accessors (generation / verification).
  uint32_t GetCode(uint64_t row) const { return codes_.Get(row); }
  int32_t GetValue(uint64_t row) const {
    return dict_.Decode(codes_.Get(row));
  }

  /// Registers both dictionary and code vector with the machine.
  void AttachSim(sim::Machine* machine);
  bool attached() const { return codes_.attached(); }

 private:
  Dictionary dict_;
  BitPackedVector codes_;
};

}  // namespace catdb::storage

#endif  // CATDB_STORAGE_DICT_COLUMN_H_
