#include "scenario/scenario.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "hw/cluster.h"
#include "scenario/json.h"
#include "scenario/result_store.h"
#include "scenario/runner.h"
#include "sweep/result_table.h"

namespace pw::scenario {

const std::vector<std::string>& KnownPresets() {
  static const std::vector<std::string> kPresets{"tpu_default", "gpu_vm",
                                                "config_a", "config_b"};
  return kPresets;
}

namespace {

// ---------------------------------------------------------------------------
// Typed field extraction with unknown-key detection.
//
// Every reader below funnels object members through one FieldReader;
// Finish() then reports any member that was never registered, with a
// "did you mean" suggestion over the registered keys.

constexpr double kNoMin = -std::numeric_limits<double>::infinity();

class FieldReader {
 public:
  FieldReader(const Json& obj, DiagnosticEngine* diags)
      : obj_(obj), diags_(diags) {}

  // An int or int64 member: a JSON int >= min that fits T.
  template <typename T>
  void Int(const char* key, T* out, double min = kNoMin) {
    const Json* v = Register(key);
    if (v == nullptr) return;
    if (!v->is_int()) {
      TypeError(key, "int", *v);
      return;
    }
    if (static_cast<double>(v->int_value()) < min) {
      BoundError(*v, key, min, std::to_string(v->int_value()));
      return;
    }
    if (!std::in_range<T>(v->int_value())) {
      diags_->Error(obj_.KeyLoc(key),
                    std::string("key '") + key + "' is out of int range");
      return;
    }
    *out = static_cast<T>(v->int_value());
  }

  void Double(const char* key, double* out, double min = kNoMin) {
    const Json* v = Register(key);
    if (v == nullptr) return;
    if (!v->is_number()) {
      TypeError(key, "number", *v);
      return;
    }
    if (v->number_value() < min) {
      BoundError(*v, key, min, FormatNumber(v->number_value()));
      return;
    }
    *out = v->number_value();
  }

  void OptDouble(const char* key, std::optional<double>* out, double min) {
    double v = 0;
    bool had = false;
    {
      const Json* j = Register(key);
      if (j == nullptr) return;
      if (!j->is_number()) {
        TypeError(key, "number", *j);
        return;
      }
      v = j->number_value();
      had = true;
      if (v < min) {
        diags_->Error(j->loc(), std::string("key '") + key +
                                    "' must be >= " + FormatNumber(min));
        return;
      }
    }
    if (had) *out = v;
  }

  void Bool(const char* key, bool* out) {
    const Json* v = Register(key);
    if (v == nullptr) return;
    if (!v->is_bool()) {
      TypeError(key, "bool", *v);
      return;
    }
    *out = v->bool_value();
  }

  void String(const char* key, std::string* out, SourceLoc* loc = nullptr) {
    const Json* v = Register(key);
    if (v == nullptr) return;
    if (!v->is_string()) {
      TypeError(key, "string", *v);
      return;
    }
    *out = v->string_value();
    if (loc != nullptr) *loc = v->loc();
  }

  // Registers `key` and returns it when present and an object/array.
  const Json* Object(const char* key) {
    const Json* v = Register(key);
    if (v == nullptr) return nullptr;
    if (!v->is_object()) {
      TypeError(key, "object", *v);
      return nullptr;
    }
    return v;
  }

  const Json* Array(const char* key) {
    const Json* v = Register(key);
    if (v == nullptr) return nullptr;
    if (!v->is_array()) {
      TypeError(key, "array", *v);
      return nullptr;
    }
    return v;
  }

  // Registers `key` and returns it, of any type, when present.
  const Json* Any(const char* key) { return Register(key); }

  // Registers a key this reader handles elsewhere (e.g. "quick").
  void Allow(const char* key) { keys_.emplace_back(key); }

  bool Saw(const std::string& key) const {
    return obj_.Find(key) != nullptr;
  }

  // Reports unknown keys with a suggestion over everything registered.
  void Finish() {
    for (const Json::Member& m : obj_.members()) {
      bool known = false;
      for (const std::string& k : keys_) {
        if (k == m.key) {
          known = true;
          break;
        }
      }
      if (!known) {
        diags_->Error(m.key_loc, "unknown key '" + m.key + "'" +
                                     DidYouMeanSuffix(m.key, keys_));
      }
    }
  }

 private:
  const Json* Register(const char* key) {
    keys_.emplace_back(key);
    return obj_.Find(key);
  }

  void TypeError(const char* key, const char* want, const Json& got) {
    diags_->Error(got.loc(), std::string("key '") + key + "' expects " +
                                 want + ", got " + got.kind_name());
  }

  void BoundError(const Json& got, const char* key, double min,
                  const std::string& value) {
    diags_->Error(got.loc(), std::string("key '") + key + "' must be >= " +
                                 FormatNumber(min) + " (got " + value + ")");
  }

  static std::string FormatNumber(double d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", d);
    return buf;
  }

  const Json& obj_;
  DiagnosticEngine* diags_;
  std::vector<std::string> keys_;
};

// ---------------------------------------------------------------------------
// Section readers: the cluster by hand, the family sections by walking each
// spec's field table (shared by the full and the "quick" overlay parse).

void ReadCluster(const Json& obj, ClusterSpec* s, DiagnosticEngine* diags) {
  FieldReader r(obj, diags);
  SourceLoc preset_loc = obj.loc();
  r.String("preset", &s->preset, &preset_loc);
  if (r.Saw("preset")) {
    bool ok = false;
    for (const std::string& p : KnownPresets()) ok |= p == s->preset;
    if (!ok) {
      diags->Error(preset_loc, "unknown cluster preset '" + s->preset + "'" +
                                   DidYouMeanSuffix(s->preset, KnownPresets()));
    }
  }
  r.Int("islands", &s->islands, 1);
  r.Int("hosts_per_island", &s->hosts_per_island, 1);
  // hw::Cluster::ConfigA/ConfigB die on more hosts than the paper's
  // configuration has.
  for (const auto& [preset, max_hosts] :
       {std::pair{"config_a", hw::Cluster::kConfigAMaxHosts},
        std::pair{"config_b", hw::Cluster::kConfigBMaxHosts}}) {
    if (s->preset == preset && s->hosts_per_island > max_hosts) {
      diags->Error(obj.Find("hosts_per_island")->loc(),
                   "preset '" + s->preset + "' takes at most " +
                       std::to_string(max_hosts) + " hosts_per_island (got " +
                       std::to_string(s->hosts_per_island) + ")");
    }
  }
  r.Int("devices_per_host", &s->devices_per_host, 1);
  r.OptDouble("host_jitter_frac", &s->host_jitter_frac, 0);
  // hw::Cluster dies on an empty HBM or DRAM pool, so a capacity must come
  // to at least one byte, and its conversion to Bytes must not overflow.
  for (const auto& [key, mib] :
       {std::pair{"hbm_capacity_mib", &s->hbm_capacity_mib},
        std::pair{"host_dram_capacity_mib", &s->host_dram_capacity_mib}}) {
    r.OptDouble(key, mib, 0);
    if (!mib->has_value()) continue;
    const double bytes = **mib * 1024.0 * 1024.0;  // MiB() without the cast
    if (bytes < 1) {
      diags->Error(obj.Find(key)->loc(),
                   std::string("key '") + key +
                       "' must be at least one byte (>= 1/1048576 MiB)");
    } else if (bytes >= 0x1p63) {
      diags->Error(obj.Find(key)->loc(),
                   std::string("key '") + key + "' must be under 2^63 bytes");
    }
  }
  if (const Json* flow = r.Object("ici_flow")) {
    FieldReader fr(*flow, diags);
    fr.Bool("enabled", &s->ici_flow);
    fr.Int("dims", &s->ici_flow_dims, 2);
    if (s->ici_flow_dims > 3) {
      diags->Error(flow->KeyLoc("dims"), "key 'dims' must be 2 or 3");
    }
    fr.Finish();
  }
  if (const Json* clos = r.Object("dcn_clos")) {
    FieldReader cr(*clos, diags);
    cr.Bool("enabled", &s->dcn_clos);
    cr.Int("hosts_per_leaf", &s->clos_hosts_per_leaf, 1);
    cr.Int("num_spines", &s->clos_num_spines, 1);
    cr.Double("oversubscription", &s->clos_oversubscription, 0);
    cr.Finish();
  }
  r.Finish();
}

const std::vector<std::string>& KnownFaultKinds() {
  static const std::vector<std::string> kKinds{"device_crash", "straggler",
                                              "link_degrade", "partition"};
  return kKinds;
}

// One fault_plan entry. Only the fields the kind uses are legal, so a
// parsed event serializes back to exactly the keys it was written with.
void ReadFaultPlanEvent(const Json& obj, FaultPlanEvent* e,
                        DiagnosticEngine* diags) {
  FieldReader r(obj, diags);
  SourceLoc kind_loc = obj.loc();
  r.String("kind", &e->kind, &kind_loc);
  r.Double("at_ms", &e->at_ms, 0);
  r.Double("window_ms", &e->window_ms, 0);
  r.Int("device", &e->device, 0);
  r.Int("host", &e->host, 0);
  r.Double("severity", &e->severity);
  r.Finish();

  bool known = false;
  for (const std::string& k : KnownFaultKinds()) known |= k == e->kind;
  if (!known) {
    diags->Error(kind_loc, "unknown fault kind '" + e->kind + "'" +
                               DidYouMeanSuffix(e->kind, KnownFaultKinds()));
    return;
  }
  const bool device_kind = e->kind == "device_crash" || e->kind == "straggler";
  if (!device_kind && r.Saw("device")) {
    diags->Error(obj.KeyLoc("device"),
                 "'device' does not apply to kind '" + e->kind + "'");
  }
  if (device_kind && r.Saw("host")) {
    diags->Error(obj.KeyLoc("host"),
                 "'host' does not apply to kind '" + e->kind + "'");
  }
  if (e->kind == "straggler") {
    if (e->severity < 1.0) {
      diags->Error(obj.KeyLoc("severity"),
                   "straggler 'severity' is a compute multiplier; "
                   "it must be >= 1");
    }
  } else if (e->kind == "link_degrade") {
    if (e->severity <= 0.0 || e->severity > 1.0) {
      diags->Error(obj.KeyLoc("severity"),
                   "link_degrade 'severity' is a bandwidth scale; "
                   "it must be in (0, 1]");
    }
  } else if (r.Saw("severity")) {
    diags->Error(obj.KeyLoc("severity"),
                 "'severity' does not apply to kind '" + e->kind + "'");
  }
}

void ReadFaultPlan(const Json* plan, std::vector<FaultPlanEvent>* out,
                   DiagnosticEngine* diags) {
  if (plan == nullptr) return;
  // A fault_plan in a quick overlay replaces the full plan wholesale
  // (merging timelines element-wise would be unintelligible).
  out->clear();
  for (const Json& entry : plan->array()) {
    if (!entry.is_object()) {
      diags->Error(entry.loc(),
                   std::string("fault_plan entries expect object, got ") +
                       entry.kind_name());
      continue;
    }
    FaultPlanEvent e;
    ReadFaultPlanEvent(entry, &e, diags);
    out->push_back(e);
  }
}

// Calls fn on each entry of a table (a tuple), in order.
template <typename Table, typename Fn>
void ForEach(const Table& table, Fn fn) {
  std::apply([&](const auto&... entry) { (fn(entry), ...); }, table);
}

// Reads a section object, or its "quick" overlay on top of the full spec,
// by walking S's field table; the member's type picks the reader. Absent
// fields keep their incoming values.
template <typename S>
void ReadSpec(const Json& obj, S* s, bool overlay, DiagnosticEngine* diags) {
  FieldReader r(obj, diags);
  if (!overlay) r.Allow("quick");
  ForEach(S::kFields, [&](const auto& f) {
    auto* out = &(s->*f.member);
    using T = std::remove_pointer_t<decltype(out)>;
    if constexpr (std::is_same_v<T, double>) {
      r.Double(f.key, out, f.min);
    } else if constexpr (std::is_integral_v<T>) {
      r.Int(f.key, out, f.min);
    } else {
      ReadFaultPlan(r.Array(f.key), out, diags);
    }
  });
  r.Finish();
}

template <typename S>
void ReadSection(const Json& obj, const Section<S>& section, Scenario* sc,
                 DiagnosticEngine* diags) {
  WithQuick<S>& out = sc->*section.member;
  out.present = true;
  out.loc = obj.loc();
  ReadSpec(obj, &out.full, /*overlay=*/false, diags);
  out.quick = out.full;
  if (const Json* q = obj.Find("quick")) {
    if (!q->is_object()) {
      diags->Error(q->loc(), std::string("key 'quick' expects object, got ") +
                                 q->kind_name());
      return;
    }
    ReadSpec(*q, &out.quick, /*overlay=*/true, diags);
  }
}

// --- Sweep axes ------------------------------------------------------------

enum class AxisType { kInt, kDouble, kString };

const char* AxisTypeName(AxisType t) {
  switch (t) {
    case AxisType::kInt: return "int";
    case AxisType::kDouble: return "double";
    case AxisType::kString: return "string";
  }
  return "?";
}

// Reads one "values"/"quick_values" array into ParamValues. Numeric arrays
// mixing ints and doubles promote everything to double; otherwise elements
// must agree in type. Returns the element type via *type.
bool ReadAxisValues(const Json& arr, const char* key,
                    std::vector<sweep::ParamValue>* out, AxisType* type,
                    DiagnosticEngine* diags) {
  if (arr.array().empty()) {
    diags->Error(arr.loc(), std::string("'") + key + "' must not be empty");
    return false;
  }
  bool any_double = false, any_int = false, any_string = false;
  for (const Json& v : arr.array()) {
    if (v.is_int()) {
      any_int = true;
    } else if (v.is_double()) {
      any_double = true;
    } else if (v.is_string()) {
      any_string = true;
    } else {
      diags->Error(v.loc(), std::string("'") + key +
                                "' elements must be numbers or strings, got " +
                                v.kind_name());
      return false;
    }
  }
  if (any_string && (any_int || any_double)) {
    diags->Error(arr.loc(), std::string("'") + key +
                                "' mixes strings and numbers");
    return false;
  }
  out->clear();
  for (const Json& v : arr.array()) {
    if (any_string) {
      out->emplace_back(v.string_value());
    } else if (any_double) {
      out->emplace_back(v.number_value());
    } else {
      out->emplace_back(v.int_value());
    }
  }
  *type = any_string ? AxisType::kString
                     : (any_double ? AxisType::kDouble : AxisType::kInt);
  return true;
}

void ReadSweep(const Json& obj, Scenario* out, DiagnosticEngine* diags) {
  out->sweep_loc = obj.loc();
  FieldReader r(obj, diags);
  const Json* axes = r.Array("axes");
  r.Finish();
  if (axes == nullptr) {
    if (obj.Find("axes") == nullptr) {
      diags->Error(obj.loc(), "'sweep' requires an 'axes' array");
    }
    return;
  }
  for (const Json& axis_obj : axes->array()) {
    if (!axis_obj.is_object()) {
      diags->Error(axis_obj.loc(), std::string("axis entries expect object, "
                                               "got ") +
                                       axis_obj.kind_name());
      continue;
    }
    SweepAxis axis;
    axis.loc = axis_obj.loc();
    FieldReader ar(axis_obj, diags);
    ar.String("name", &axis.name);
    const Json* values = ar.Array("values");
    const Json* quick = ar.Array("quick_values");
    ar.Finish();
    if (axis.name.empty()) {
      diags->Error(axis_obj.loc(), "axis requires a non-empty 'name'");
      continue;
    }
    for (const SweepAxis& prev : out->sweep) {
      if (prev.name == axis.name) {
        diags->Error(axis_obj.KeyLoc("name"),
                     "duplicate axis '" + axis.name + "'");
      }
    }
    if (values == nullptr) {
      diags->Error(axis_obj.loc(),
                   "axis '" + axis.name + "' requires a 'values' array");
      continue;
    }
    AxisType type = AxisType::kInt;
    if (!ReadAxisValues(*values, "values", &axis.values, &type, diags)) {
      continue;
    }
    if (quick != nullptr) {
      AxisType qtype = AxisType::kInt;
      if (!ReadAxisValues(*quick, "quick_values", &axis.quick_values, &qtype,
                          diags)) {
        continue;
      }
      // Numeric widening keeps [1, 2] usable as quick values of a double
      // axis; everything else must agree.
      if (qtype == AxisType::kInt && type == AxisType::kDouble) {
        for (sweep::ParamValue& v : axis.quick_values) {
          v = static_cast<double>(std::get<std::int64_t>(v));
        }
        qtype = AxisType::kDouble;
      }
      if (qtype != type) {
        diags->Error(quick->loc(),
                     "axis '" + axis.name + "': 'quick_values' are " +
                         AxisTypeName(qtype) + " but 'values' are " +
                         AxisTypeName(type));
        continue;
      }
    }
    out->sweep.push_back(std::move(axis));
  }
}

// --- Gates -----------------------------------------------------------------

void ReadGateBound(const Json* v, const char* key, GateBound* out,
                   DiagnosticEngine* diags) {
  if (v == nullptr) return;
  if (v->is_number()) {
    *out = {true, v->number_value(), ""};
  } else if (v->is_string() && !v->string_value().empty()) {
    if (ResultStore::IsGlob(v->string_value())) {
      diags->Error(v->loc(), std::string("gate '") + key +
                                 "' must be a literal result path, not a glob");
      return;
    }
    *out = {true, 0, v->string_value()};
  } else {
    diags->Error(v->loc(), std::string("gate '") + key +
                               "' expects a number or a result path, got " +
                               v->kind_name());
  }
}

void ReadGates(const Json& arr, std::vector<Gate>* out,
               DiagnosticEngine* diags) {
  for (const Json& obj : arr.array()) {
    if (!obj.is_object()) {
      diags->Error(obj.loc(), std::string("gates entries expect object, got ") +
                                  obj.kind_name());
      continue;
    }
    Gate g;
    g.loc = obj.loc();
    FieldReader r(obj, diags);
    r.String("select", &g.select);
    const Json* min = r.Any("min");
    const Json* max = r.Any("max");
    r.Finish();
    ReadGateBound(min, "min", &g.min, diags);
    ReadGateBound(max, "max", &g.max, diags);
    if (g.select.empty()) {
      diags->Error(obj.loc(), "gate requires a non-empty 'select' path");
    } else if (g.select.find(' ') != std::string::npos) {
      // "<agg> over <glob>" would otherwise read as a glob matching nothing.
      diags->Error(obj.KeyLoc("select"),
                   "gate 'select' must be a result path or glob; "
                   "aggregations are not supported");
    }
    if (min == nullptr && max == nullptr) {
      diags->Error(obj.loc(), "gate requires a 'min' or 'max' bound");
    }
    if (g.min.set && g.max.set && g.min.path.empty() && g.max.path.empty() &&
        g.min.number > g.max.number) {
      diags->Error(obj.KeyLoc("min"), "gate 'min' is greater than 'max'");
    }
    out->push_back(std::move(g));
  }
}

// ---------------------------------------------------------------------------
// Canonical serialization.

// Shortest representation that parses back to the same double, with a
// ".0" suffix for integral values so the canonical form re-parses as a
// double (round-trip stability of the int/double distinction).
std::string FormatCanonicalDouble(double d) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  std::string s = buf;
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

std::string FormatParamValue(const sweep::ParamValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return FormatCanonicalDouble(*d);
  return "\"" + sweep::JsonEscape(std::get<std::string>(v)) + "\"";
}

// Tiny canonical-JSON emitter: 2-space indent, one member per line, scalar
// arrays inline.
class JsonWriter {
 public:
  std::string Take() { return std::move(out_); }

  void BeginObject() {
    Value("{");
    stack_.push_back(true);
  }
  void EndObject() {
    stack_.pop_back();
    out_ += "\n" + Indent() + "}";
  }
  void Key(const std::string& k) {
    if (!stack_.back()) out_ += ",";
    stack_.back() = false;
    out_ += "\n" + Indent() + "\"" + sweep::JsonEscape(k) + "\": ";
  }
  void String(const std::string& v) {
    Value("\"" + sweep::JsonEscape(v) + "\"");
  }
  void Int(std::int64_t v) { Value(std::to_string(v)); }
  void Double(double v) { Value(FormatCanonicalDouble(v)); }
  void Bool(bool v) { Value(v ? "true" : "false"); }
  void Raw(const std::string& v) { Value(v); }

  void InlineArray(const std::vector<sweep::ParamValue>& values) {
    std::string s = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) s += ", ";
      s += FormatParamValue(values[i]);
    }
    s += "]";
    Value(s);
  }

  // Array of objects, one object per element, emitted via `fn`.
  template <typename It, typename Fn>
  void ObjectArray(It begin, It end, Fn fn) {
    Value("[");
    bool first = true;
    stack_.push_back(true);
    for (It it = begin; it != end; ++it) {
      if (!first) out_ += ",";
      first = false;
      out_ += "\n" + Indent();
      fn(*it);
    }
    stack_.pop_back();
    out_ += "\n" + Indent() + "]";
  }

 private:
  std::string Indent() const {
    return std::string(2 * stack_.size(), ' ');
  }
  void Value(const std::string& v) { out_ += v; }

  std::string out_;
  std::vector<bool> stack_;  // per level: no member emitted yet
};

// Only the keys the kind accepts are emitted, mirroring what the parser
// admits, so parse -> serialize stays a fixed point.
void WriteFaultPlan(JsonWriter* w, const std::vector<FaultPlanEvent>& plan) {
  w->ObjectArray(plan.begin(), plan.end(), [w](const FaultPlanEvent& e) {
    w->BeginObject();
    w->Key("kind");
    w->String(e.kind);
    w->Key("at_ms");
    w->Double(e.at_ms);
    w->Key("window_ms");
    w->Double(e.window_ms);
    if (e.kind == "device_crash" || e.kind == "straggler") {
      w->Key("device");
      w->Int(e.device);
    } else {
      w->Key("host");
      w->Int(e.host);
    }
    if (e.kind == "straggler" || e.kind == "link_degrade") {
      w->Key("severity");
      w->Double(e.severity);
    }
    w->EndObject();
  });
}

// Emits S's fields in table order. The full spec (no base) emits every
// scalar and any non-empty list; a quick overlay canonicalizes to the
// fields that differ from its base, the full spec.
template <typename S>
void EmitSpec(JsonWriter* w, const S& s, const S* base = nullptr) {
  ForEach(S::kFields, [&](const auto& f) {
    const auto& v = s.*f.member;
    using T = std::decay_t<decltype(v)>;
    if (base != nullptr && v == base->*f.member) return;
    if constexpr (std::is_same_v<T, std::vector<FaultPlanEvent>>) {
      if (base == nullptr && v.empty()) return;
    }
    w->Key(f.key);
    if constexpr (std::is_same_v<T, double>) {
      w->Double(v);
    } else if constexpr (std::is_integral_v<T>) {
      w->Int(v);
    } else {
      WriteFaultPlan(w, v);
    }
  });
}

template <typename S>
void EmitSection(JsonWriter* w, const char* key, const WithQuick<S>& section) {
  if (!section.present) return;
  w->Key(key);
  w->BeginObject();
  EmitSpec(w, section.full);
  // The quick overlay reduces to its diff vs the full spec; omit when empty.
  if (section.quick != section.full) {
    w->Key("quick");
    w->BeginObject();
    EmitSpec(w, section.quick, &section.full);
    w->EndObject();
  }
  w->EndObject();
}

}  // namespace

sweep::ParamGrid Scenario::Grid(bool quick) const {
  sweep::ParamGrid grid;
  for (const SweepAxis& axis : sweep) {
    grid.Axis(axis.name, axis.For(quick));
  }
  return grid;
}

std::string Scenario::Serialize() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String(name);
  w.Key("family");
  w.String(family);
  if (!description.empty()) {
    w.Key("description");
    w.String(description);
  }

  w.Key("cluster");
  w.BeginObject();
  w.Key("preset");
  w.String(cluster.preset);
  w.Key("islands");
  w.Int(cluster.islands);
  w.Key("hosts_per_island");
  w.Int(cluster.hosts_per_island);
  w.Key("devices_per_host");
  w.Int(cluster.devices_per_host);
  if (cluster.host_jitter_frac) {
    w.Key("host_jitter_frac");
    w.Double(*cluster.host_jitter_frac);
  }
  if (cluster.hbm_capacity_mib) {
    w.Key("hbm_capacity_mib");
    w.Double(*cluster.hbm_capacity_mib);
  }
  if (cluster.host_dram_capacity_mib) {
    w.Key("host_dram_capacity_mib");
    w.Double(*cluster.host_dram_capacity_mib);
  }
  if (cluster.ici_flow || cluster.ici_flow_dims != 2) {
    w.Key("ici_flow");
    w.BeginObject();
    w.Key("enabled");
    w.Bool(cluster.ici_flow);
    w.Key("dims");
    w.Int(cluster.ici_flow_dims);
    w.EndObject();
  }
  if (cluster.dcn_clos || cluster.clos_hosts_per_leaf != 8 ||
      cluster.clos_num_spines != 4 || cluster.clos_oversubscription != 1.0) {
    w.Key("dcn_clos");
    w.BeginObject();
    w.Key("enabled");
    w.Bool(cluster.dcn_clos);
    w.Key("hosts_per_leaf");
    w.Int(cluster.clos_hosts_per_leaf);
    w.Key("num_spines");
    w.Int(cluster.clos_num_spines);
    w.Key("oversubscription");
    w.Double(cluster.clos_oversubscription);
    w.EndObject();
  }
  w.EndObject();

  ForEach(kSections, [&](const auto& section) {
    EmitSection(&w, section.key, this->*section.member);
  });

  w.Key("sweep");
  w.BeginObject();
  w.Key("axes");
  w.ObjectArray(sweep.begin(), sweep.end(), [&w](const SweepAxis& axis) {
    w.BeginObject();
    w.Key("name");
    w.String(axis.name);
    w.Key("values");
    w.InlineArray(axis.values);
    if (!axis.quick_values.empty() && axis.quick_values != axis.values) {
      w.Key("quick_values");
      w.InlineArray(axis.quick_values);
    }
    w.EndObject();
  });
  w.EndObject();

  if (!gates.empty()) {
    w.Key("gates");
    w.ObjectArray(gates.begin(), gates.end(), [&w](const Gate& g) {
      w.BeginObject();
      w.Key("select");
      w.String(g.select);
      for (const auto& [key, bound] : {std::pair{"min", &g.min},
                                       std::pair{"max", &g.max}}) {
        if (!bound->set) continue;
        w.Key(key);
        if (bound->path.empty()) {
          w.Double(bound->number);
        } else {
          w.String(bound->path);
        }
      }
      w.EndObject();
    });
  }

  w.EndObject();
  std::string out = w.Take();
  out += "\n";
  return out;
}

bool ParseScenario(const std::string& text, Scenario* out,
                   DiagnosticEngine* diags) {
  Json root;
  if (!ParseJson(text, &root, diags)) return false;
  if (!root.is_object()) {
    diags->Error(root.loc(), std::string("top level expects object, got ") +
                                 root.kind_name());
    return false;
  }
  *out = Scenario();
  out->file = diags->file();

  FieldReader r(root, diags);
  r.String("name", &out->name, &out->name_loc);
  r.String("family", &out->family, &out->family_loc);
  r.String("description", &out->description);
  const Json* cluster = r.Object("cluster");
  const Json* sweep_obj = r.Object("sweep");
  ForEach(kSections, [&](const auto& section) { r.Object(section.key); });
  const Json* gates = r.Array("gates");
  r.Finish();

  if (out->name.empty()) {
    diags->Error(root.loc(), "scenario requires a non-empty 'name'");
  } else {
    for (char c : out->name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
      if (!ok) {
        diags->Error(out->name_loc,
                     "'name' must match [A-Za-z0-9_-]+ (it names the "
                     "BENCH_<name>.json result file and the query-path root)");
        break;
      }
    }
  }
  if (out->family.empty()) {
    diags->Error(root.loc(), "scenario requires a 'family'");
  } else {
    const std::vector<std::string> families = FamilyNames();
    bool known = false;
    for (const std::string& f : families) known |= f == out->family;
    if (!known) {
      diags->Error(out->family_loc,
                   "unknown family '" + out->family + "'" +
                       DidYouMeanSuffix(out->family, families));
    }
  }

  if (cluster != nullptr) ReadCluster(*cluster, &out->cluster, diags);
  ForEach(kSections, [&](const auto& section) {
    const Json* obj = root.Find(section.key);
    if (obj == nullptr || !obj->is_object()) return;
    ReadSection(*obj, section, out, diags);
    // A section for a family this scenario does not run is almost certainly
    // a mistake (its knobs would be silently ignored).
    if (out->family != section.key) {
      diags->Error(root.KeyLoc(section.key),
                   std::string("section '") + section.key +
                       "' does not match family '" + out->family + "'");
    }
  });

  if (sweep_obj == nullptr) {
    if (root.Find("sweep") == nullptr) {
      diags->Error(root.loc(), "scenario requires a 'sweep' section");
    }
  } else {
    ReadSweep(*sweep_obj, out, diags);
  }
  if (gates != nullptr) ReadGates(*gates, &out->gates, diags);

  return diags->ok();
}

bool LoadScenarioFile(const std::string& path, Scenario* out,
                      DiagnosticEngine* diags) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *diags = DiagnosticEngine(path, "");
    diags->Error({0, 0}, "cannot open file");
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *diags = DiagnosticEngine(path, buf.str());
  return ParseScenario(buf.str(), out, diags);
}

std::string ScenarioDir() {
  if (const char* env = std::getenv("PWSIM_SCENARIO_DIR");
      env != nullptr && env[0] != '\0') {
    return env;
  }
#ifdef PWSIM_SCENARIO_DIR_DEFAULT
  return PWSIM_SCENARIO_DIR_DEFAULT;
#else
  return "scenarios";
#endif
}

std::string DefaultScenarioPath(const std::string& name) {
  return ScenarioDir() + "/" + name + ".json";
}

}  // namespace pw::scenario
