#ifndef CATDB_PLAN_DATASET_H_
#define CATDB_PLAN_DATASET_H_

// Declarative dataset construction — the single seam through which both the
// scenario executor and the hand-coded figure benches build their datasets
// (fig10 constructs DatasetSpec inline; the scenario files carry them as
// JSON). Sizes are given either as exact LLC ratios (Fraction, the
// paper's scaling rule) or as explicit counts (the generator's
// machine-independent plans).

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "obs/json_value.h"
#include "plan/json_util.h"
#include "sim/machine.h"
#include "workloads/micro.h"
#include "workloads/s4hana.h"

namespace catdb::plan {

enum class DatasetType : uint8_t {
  kScan,    // workloads::ScanDataset (Query 1 column)
  kAgg,     // workloads::AggDataset (Query 2 V and G columns)
  kJoin,    // workloads::JoinDataset (Query 3 PK/FK columns)
  kAcdoca,  // workloads::AcdocaData (S/4HANA OLTP table)
};

const char* DatasetTypeName(DatasetType type);
Status DatasetTypeFromName(const std::string& name, const std::string& path,
                           DatasetType* out);

struct DatasetSpec {
  std::string name;
  DatasetType type = DatasetType::kScan;
  /// Row count (FK rows for join; table rows for acdoca).
  uint64_t rows = 0;
  uint64_t seed = 0;

  // scan/agg dictionary sizing — exactly one of:
  bool has_dict_ratio = false;
  Fraction dict_ratio;  // dictionary bytes : LLC bytes (paper scaling rule)
  uint64_t distinct = 0;  // explicit distinct-value count

  // agg grouping — exactly one of:
  bool has_paper_groups = false;
  uint64_t paper_groups = 0;  // paper-scale count, mapped via ScaledGroupCount
  uint64_t groups = 0;        // explicit scaled group count

  // join key-count sizing — exactly one of:
  bool has_pk_ratio = false;
  Fraction pk_ratio;  // bit-vector bytes : LLC bytes
  uint64_t keys = 0;  // explicit key count

  // acdoca dictionary sizing (defaults = AcdocaConfig defaults):
  bool has_big_dict_ratio = false;
  Fraction big_dict_ratio;
  bool has_small_dict_entries = false;
  uint64_t small_dict_entries = 0;
};

/// Structural validation (per-type required/forbidden sizing fields, row
/// bounds). `path` prefixes every error.
Status ValidateDatasetSpec(const DatasetSpec& spec, const std::string& path);

Status DatasetFromJson(const obs::JsonValue& v, const std::string& path,
                       DatasetSpec* out);
obs::JsonValue DatasetToJson(const DatasetSpec& spec);

/// The built dataset; exactly the member matching the spec's type is set.
struct BuiltDataset {
  std::unique_ptr<workloads::ScanDataset> scan;
  std::unique_ptr<workloads::AggDataset> agg;
  std::unique_ptr<workloads::JoinDataset> join;
  std::unique_ptr<workloads::AcdocaData> acdoca;
};

/// Generates and attaches the dataset on `machine`, resolving ratio-based
/// sizes against the machine's LLC exactly as the hand-coded benches do
/// (DictEntriesForRatio / ScaledGroupCount / PkCountForRatio). The spec must
/// validate.
BuiltDataset BuildDataset(sim::Machine* machine, const DatasetSpec& spec);

}  // namespace catdb::plan

#endif  // CATDB_PLAN_DATASET_H_
