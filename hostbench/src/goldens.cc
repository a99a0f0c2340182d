#include "goldens.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/json_value.h"
#include "plan/scenario.h"

namespace hostbench {

namespace {

using catdb::Status;
using catdb::obs::JsonValue;

constexpr const char* kSchema = "hostbench.goldens/v1";

Status Error(const std::string& what) {
  return Status::InvalidArgument("goldens: " + what);
}

JsonValue Number(double v) {
  // Integral values print as integers; the rest with all 17 digits, which
  // parses back to the identical double.
  if (v >= 0 && v < 9007199254740992.0 && v == std::floor(v)) {
    return JsonValue::Int(static_cast<uint64_t>(v));
  }
  return JsonValue::Double(v);
}

Status ParseVariant(const JsonValue& v, GoldenVariant* out) {
  const JsonValue* inputs = v.Find("inputs");
  const JsonValue* sims = v.Find("sims");
  if (inputs == nullptr || !inputs->is_object() || sims == nullptr ||
      !sims->is_object()) {
    return Error("a variant needs \"inputs\" and \"sims\" objects");
  }
  for (const auto& [key, value] : inputs->members()) {
    if (!value.is_uint64()) return Error("input " + key + " is not a seed");
    out->inputs[key] = value.uint64_value();
  }
  for (const auto& [name, values] : sims->members()) {
    if (!values.is_object()) return Error("sim " + name + " is not an object");
    SimValues& sv = out->sims[name];
    for (const auto& [key, value] : values.members()) {
      if (!value.is_number()) {
        return Error(name + "/" + key + " is not a number");
      }
      sv[key] = value.number();
    }
  }
  return Status::OK();
}

}  // namespace

void AddHierarchyStats(const catdb::simcache::HierarchyStats& s,
                       SimValues* out) {
  auto set = [out](const char* key, uint64_t v) {
    (*out)[key] = static_cast<double>(v);
  };
  set("l1_hits", s.l1.hits);
  set("l1_misses", s.l1.misses);
  set("l2_hits", s.l2.hits);
  set("l2_misses", s.l2.misses);
  set("llc_hits", s.llc.hits);
  set("llc_misses", s.llc.misses);
  set("dram_accesses", s.dram_accesses);
  set("dram_wait_cycles", s.dram_wait_cycles);
  set("prefetches_issued", s.prefetches_issued);
  set("prefetches_dropped", s.prefetches_dropped);
  set("prefetch_hits", s.prefetch_hits);
  set("llc_back_invalidations", s.llc_back_invalidations);
  set("instructions", s.instructions);
}

double TotalAccesses(const SimOutputs& outputs) {
  double total = 0;
  for (const auto& [name, values] : outputs) {
    const auto hits = values.find("l1_hits");
    const auto misses = values.find("l1_misses");
    if (hits != values.end()) total += hits->second;
    if (misses != values.end()) total += misses->second;
  }
  return total;
}

Status LoadGoldens(const std::string& path, Goldens* out) {
  std::string text;
  CATDB_RETURN_IF_ERROR(catdb::plan::ReadTextFile(path, &text));
  return ParseGoldens(text, out);
}

Status ParseGoldens(const std::string& text, Goldens* out) {
  JsonValue root;
  CATDB_RETURN_IF_ERROR(catdb::obs::JsonParse(text, &root));
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value() != kSchema) {
    return Error(std::string("expected schema ") + kSchema);
  }
  const JsonValue* workloads = root.Find("workloads");
  if (workloads == nullptr || !workloads->is_object()) {
    return Error("missing \"workloads\" object");
  }
  out->clear();
  for (const auto& [name, variants] : workloads->members()) {
    if (!variants.is_array()) return Error(name + " is not an array");
    std::vector<GoldenVariant>& list = (*out)[name];
    for (const JsonValue& v : variants.array()) {
      list.emplace_back();
      CATDB_RETURN_IF_ERROR(ParseVariant(v, &list.back()));
    }
  }
  return Status::OK();
}

std::string GoldensToJson(const Goldens& goldens) {
  std::vector<std::pair<std::string, JsonValue>> workloads;
  for (const auto& [name, variants] : goldens) {
    std::vector<JsonValue> list;
    for (const GoldenVariant& v : variants) {
      std::vector<std::pair<std::string, JsonValue>> inputs;
      for (const auto& [key, seed] : v.inputs) {
        inputs.emplace_back(key, JsonValue::Int(seed));
      }
      std::vector<std::pair<std::string, JsonValue>> sims;
      for (const auto& [sim, values] : v.sims) {
        std::vector<std::pair<std::string, JsonValue>> members;
        for (const auto& [key, value] : values) {
          members.emplace_back(key, Number(value));
        }
        sims.emplace_back(sim, JsonValue::Object(std::move(members)));
      }
      list.push_back(JsonValue::Object(
          {{"inputs", JsonValue::Object(std::move(inputs))},
           {"sims", JsonValue::Object(std::move(sims))}}));
    }
    workloads.emplace_back(name, JsonValue::Array(std::move(list)));
  }
  return catdb::obs::JsonPretty(JsonValue::Object(
      {{"schema", JsonValue::Str(kSchema)},
       {"workloads", JsonValue::Object(std::move(workloads))}}));
}

namespace {

CheckResult Check(const SimOutputs& golden, const SimOutputs& observed,
                  bool all) {
  CheckResult r;
  char buf[256];
  for (const auto& [name, expected] : golden) {
    r.attempted += 1;
    const auto it = observed.find(name);
    if (it == observed.end()) {
      r.failed += 1;
      r.mismatches.push_back(name + ": not produced by the run");
      continue;
    }
    bool ok = true;
    for (const auto& [key, value] : it->second) {
      const auto want = expected.find(key);
      if (want == expected.end()) {
        r.mismatches.push_back(name + "/" + key + ": no golden value");
        ok = false;
      } else if (!(want->second == value)) {
        std::snprintf(buf, sizeof(buf), "%s/%s: got %.17g, golden %.17g",
                      name.c_str(), key.c_str(), value, want->second);
        r.mismatches.push_back(buf);
        ok = false;
      }
    }
    for (const auto& [key, value] : expected) {
      if (!all || it->second.count(key) != 0) continue;
      r.mismatches.push_back(name + "/" + key + ": not reported by the run");
      ok = false;
    }
    if (!ok) r.failed += 1;
  }
  for (const auto& [name, values] : observed) {
    if (golden.count(name) != 0) continue;
    r.attempted += 1;
    r.failed += 1;
    r.mismatches.push_back(name + ": no golden simulation");
  }
  return r;
}

}  // namespace

CheckResult CheckOutputs(const SimOutputs& golden, const SimOutputs& observed) {
  return Check(golden, observed, /*all=*/false);
}

CheckResult CheckAllOutputs(const SimOutputs& golden,
                            const SimOutputs& observed) {
  return Check(golden, observed, /*all=*/true);
}

void Accumulate(const CheckResult& r, CheckResult* total) {
  total->attempted += r.attempted;
  total->failed += r.failed;
  total->mismatches.insert(total->mismatches.end(), r.mismatches.begin(),
                           r.mismatches.end());
}

}  // namespace hostbench
