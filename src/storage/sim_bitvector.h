#ifndef CATDB_STORAGE_SIM_BITVECTOR_H_
#define CATDB_STORAGE_SIM_BITVECTOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "sim/machine.h"

namespace catdb::storage {

/// The compact primary-key bit vector used by the OLAP-optimized foreign-key
/// join (Section II): bit i-1 is set iff primary key i qualifies. Its size
/// relative to the LLC decides whether the join is cache-sensitive
/// (Section IV-C).
class SimBitVector {
 public:
  SimBitVector() = default;
  explicit SimBitVector(uint64_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  uint64_t num_bits() const { return num_bits_; }
  uint64_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Host-side bit operations.
  void Set(uint64_t i) {
    CATDB_DCHECK(i < num_bits_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  bool Test(uint64_t i) const {
    CATDB_DCHECK(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }

  uint64_t SimAddrOfBit(uint64_t i) const {
    CATDB_DCHECK(attached());
    return vbase_ + (i >> 3);
  }

  /// Simulated set (write-allocate read-modify-write, one access).
  void SetSim(sim::ExecContext& ctx, uint64_t i) {
    ctx.Write(SimAddrOfBit(i));
    Set(i);
  }

  /// Simulated membership probe (one random read).
  bool TestSim(sim::ExecContext& ctx, uint64_t i) const {
    ctx.Read(SimAddrOfBit(i));
    return Test(i);
  }

  void AttachSim(sim::Machine* machine) {
    CATDB_CHECK(machine != nullptr);
    CATDB_CHECK(!attached());
    CATDB_CHECK(num_bits_ > 0);
    vbase_ = machine->AllocVirtual(SizeBytes());
  }
  bool attached() const { return vbase_ != 0; }
  uint64_t vbase() const { return vbase_; }

 private:
  uint64_t num_bits_ = 0;
  std::vector<uint64_t> words_;
  uint64_t vbase_ = 0;
};

}  // namespace catdb::storage

#endif  // CATDB_STORAGE_SIM_BITVECTOR_H_
