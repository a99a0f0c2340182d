#ifndef CATDB_CAT_CAT_CONTROLLER_H_
#define CATDB_CAT_CAT_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace catdb::cat {

/// Identifier of a class of service (CLOS). CLOS 0 is the default class and
/// always exists with a full-cache mask.
using ClosId = uint32_t;

/// Classes of service of the paper's Xeon, and of every simulated machine.
inline constexpr uint32_t kDefaultMaxClos = 16;

/// Software model of Intel Cache Allocation Technology for the simulated
/// processor.
///
/// Semantics follow the real hardware (and Section V-A of the paper):
///  * up to `max_clos` classes of service (16 on the paper's Xeon);
///  * each CLOS holds a capacity bitmask with one bit per LLC way;
///  * masks must be non-zero and contiguous (hardware requirement);
///  * each core is associated with exactly one CLOS at a time;
///  * masks restrict *eviction/allocation* only — a core can still hit on
///    lines residing in ways outside its mask.
class CatController {
 public:
  /// `num_ways` is the LLC associativity (bitmask width).
  CatController(uint32_t num_ways, uint32_t num_cores,
                uint32_t max_clos = kDefaultMaxClos);

  uint32_t num_ways() const { return num_ways_; }
  uint32_t num_cores() const {
    return static_cast<uint32_t>(core_clos_.size());
  }
  uint32_t max_clos() const { return max_clos_; }
  uint64_t full_mask() const { return full_mask_; }

  /// Validates a capacity bitmask: non-zero, contiguous, within way count.
  Status ValidateMask(uint64_t mask) const;

  /// Programs the capacity bitmask of a CLOS (like writing IA32_L3_QOS_MASK).
  Status SetClosMask(ClosId clos, uint64_t mask);

  /// Returns the capacity bitmask of a CLOS.
  Result<uint64_t> GetClosMask(ClosId clos) const;

  /// Associates a core with a CLOS (like writing IA32_PQR_ASSOC).
  Status AssignCore(uint32_t core, ClosId clos);

  /// CLOS currently associated with the core.
  ClosId CoreClos(uint32_t core) const;

  /// Allocation mask currently in effect for the core.
  uint64_t CoreMask(uint32_t core) const;

  /// Number of CLOS-mask writes and core re-associations performed, for
  /// overhead accounting (Section V-C measures this path at < 100 us).
  uint64_t mask_writes() const { return mask_writes_; }
  uint64_t core_assignments() const { return core_assignments_; }

  /// Monotonic counter bumped by every successful SetClosMask / AssignCore
  /// (and by Reset). A cached (core -> clos, mask) snapshot is valid exactly
  /// while the generation it was taken under is still current, which lets
  /// the simulator's point-access fast path skip the CoreClos/CoreMask
  /// lookups on the overwhelmingly common no-reconfiguration case.
  uint64_t generation() const { return generation_; }

  /// Restores the reset state: all cores in CLOS 0, all masks full.
  void Reset();

 private:
  uint32_t num_ways_;
  uint32_t max_clos_;
  uint64_t full_mask_;
  std::vector<uint64_t> clos_masks_;
  std::vector<ClosId> core_clos_;
  uint64_t mask_writes_ = 0;
  uint64_t core_assignments_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace catdb::cat

#endif  // CATDB_CAT_CAT_CONTROLLER_H_
