#include "psql/translator.h"

#include <algorithm>
#include <stdexcept>

#include "psql/error.h"

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "eval/quality.h"

namespace prefdb::psql {

namespace {

size_t ColumnOf(const std::string& attribute, const Schema& schema) {
  auto idx = schema.IndexOf(attribute);
  if (!idx) throw NotFoundError("unknown attribute '" + attribute + "'");
  return *idx;
}

bool EvalCompare(const Value& lhs, CompareOp op, const Value& rhs) {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
  }
  return false;
}

// A layered preference over arbitrary condition atoms: the value's level is
// the first layer whose condition it satisfies (1-based); values matching
// no layer sit one level below. Generalizes POS/POS and POS/NEG to
// negated conditions, which Preference SQL's ELSE chains need (e.g.
// "category = 'roadster' ELSE category <> 'passenger'").
class CondLayeredPreference : public BasePreference {
 public:
  CondLayeredPreference(std::string attribute, std::vector<Condition> layers)
      : BasePreference(PreferenceKind::kLayered, std::move(attribute)),
        layers_(std::move(layers)) {
    if (layers_.empty()) {
      throw BadArgumentError("ELSE chain needs at least one condition");
    }
  }

  size_t LevelOf(const Value& v) const {
    for (size_t i = 0; i < layers_.size(); ++i) {
      if (Matches(layers_[i], v)) return i + 1;
    }
    return layers_.size() + 1;
  }

  std::optional<size_t> IntrinsicLevelOf(const Value& v) const override {
    return LevelOf(v);
  }

  bool LessValue(const Value& x, const Value& y) const override {
    return LevelOf(x) > LevelOf(y);
  }

  std::string ToString() const override {
    std::string out = "LAYERED(" + attribute() + ", [";
    for (size_t i = 0; i < layers_.size(); ++i) {
      if (i > 0) out += ", ";
      out += layers_[i].ToString();
    }
    return out + ", OTHERS])";
  }

 protected:
  bool ParamsEqual(const Preference& other) const override {
    // Structural equality via rendered conditions (conditions are plain
    // data, rendering is canonical per construction).
    return ToString() == other.ToString();
  }

 private:
  static bool Matches(const Condition& cond, const Value& v) {
    switch (cond.kind) {
      case Condition::Kind::kCompare:
        return EvalCompare(v, cond.op, cond.value);
      case Condition::Kind::kInList: {
        bool found = false;
        for (const Value& candidate : cond.list) {
          if (v == candidate) {
            found = true;
            break;
          }
        }
        return cond.negated ? !found : found;
      }
      default:
        return false;  // AND/OR/NOT not allowed in ELSE atoms by the parser
    }
  }

  std::vector<Condition> layers_;
};

// Single condition atom -> the natural paper constructor.
PrefPtr TranslateCondAtom(const Condition& cond) {
  if (cond.kind == Condition::Kind::kInList) {
    if (cond.negated) return Neg(cond.attribute, cond.list);
    return Pos(cond.attribute, cond.list);
  }
  // kCompare with = or <> (parser guarantees).
  if (cond.op == CompareOp::kEq) return Pos(cond.attribute, {cond.value});
  return Neg(cond.attribute, {cond.value});
}

}  // namespace

PrefPtr TranslatePreference(const PrefExpr& expr) {
  switch (expr.kind) {
    case PrefExpr::Kind::kLowest:
      return Lowest(expr.attribute);
    case PrefExpr::Kind::kHighest:
      return Highest(expr.attribute);
    case PrefExpr::Kind::kAround:
      return Around(expr.attribute, expr.low);
    case PrefExpr::Kind::kBetween:
      return Between(expr.attribute, expr.low, expr.high);
    case PrefExpr::Kind::kCondLayers: {
      if (expr.layers.size() == 1) return TranslateCondAtom(expr.layers[0]);
      // All layers must constrain the same attribute for a value-wise
      // preference; Preference SQL's ELSE is defined per attribute.
      const std::string& attr = expr.layers[0].attribute;
      for (const Condition& c : expr.layers) {
        if (c.attribute != attr) {
          throw BadArgumentError(
              "ELSE chain must stay on one attribute; got '" + attr +
              "' and '" + c.attribute + "'");
        }
      }
      return std::make_shared<CondLayeredPreference>(attr, expr.layers);
    }
    case PrefExpr::Kind::kPareto:
      return Pareto(TranslatePreference(*expr.children[0]),
                    TranslatePreference(*expr.children[1]));
    case PrefExpr::Kind::kPrior:
      return Prioritized(TranslatePreference(*expr.children[0]),
                         TranslatePreference(*expr.children[1]));
  }
  throw BadArgumentError("unknown preference expression");
}

PrefPtr TranslatePreferenceChain(const std::vector<PrefExprPtr>& chain) {
  PrefPtr acc;
  for (const auto& expr : chain) {
    PrefPtr p = TranslatePreference(*expr);
    acc = acc ? Prioritized(acc, p) : p;
  }
  return acc;
}

std::function<bool(const Tuple&)> CompileCondition(const Condition& cond,
                                                   const Schema& schema) {
  switch (cond.kind) {
    case Condition::Kind::kCompare: {
      size_t col = ColumnOf(cond.attribute, schema);
      CompareOp op = cond.op;
      Value rhs = cond.value;
      return [col, op, rhs](const Tuple& t) {
        return EvalCompare(t[col], op, rhs);
      };
    }
    case Condition::Kind::kInList: {
      size_t col = ColumnOf(cond.attribute, schema);
      auto set = std::make_shared<ValueSet>();
      for (const Value& v : cond.list) set->insert(v);
      bool negated = cond.negated;
      return [col, set, negated](const Tuple& t) {
        bool found = set->count(t[col]) > 0;
        return negated ? !found : found;
      };
    }
    case Condition::Kind::kAnd: {
      auto l = CompileCondition(*cond.children[0], schema);
      auto r = CompileCondition(*cond.children[1], schema);
      return [l, r](const Tuple& t) { return l(t) && r(t); };
    }
    case Condition::Kind::kOr: {
      auto l = CompileCondition(*cond.children[0], schema);
      auto r = CompileCondition(*cond.children[1], schema);
      return [l, r](const Tuple& t) { return l(t) || r(t); };
    }
    case Condition::Kind::kNot: {
      auto inner = CompileCondition(*cond.children[0], schema);
      return [inner](const Tuple& t) { return !inner(t); };
    }
  }
  throw BadArgumentError("unknown condition kind");
}

std::function<bool(const Tuple&)> CompileQualityCondition(
    const QualityCondition& cond, const PrefPtr& preference,
    const Schema& schema) {
  switch (cond.kind) {
    case QualityCondition::Kind::kAnd: {
      auto l = CompileQualityCondition(*cond.children[0], preference, schema);
      auto r = CompileQualityCondition(*cond.children[1], preference, schema);
      return [l, r](const Tuple& t) { return l(t) && r(t); };
    }
    case QualityCondition::Kind::kOr: {
      auto l = CompileQualityCondition(*cond.children[0], preference, schema);
      auto r = CompileQualityCondition(*cond.children[1], preference, schema);
      return [l, r](const Tuple& t) { return l(t) || r(t); };
    }
    case QualityCondition::Kind::kLevel:
    case QualityCondition::Kind::kDistance: {
      if (!preference) {
        throw BadArgumentError(
            "BUT ONLY requires a PREFERRING clause to resolve " +
            cond.ToString());
      }
      PrefPtr base = FindBasePreference(preference, cond.attribute);
      if (!base) {
        throw BadArgumentError(
            "no base preference on attribute '" + cond.attribute +
            "' to resolve " + cond.ToString());
      }
      size_t col = ColumnOf(cond.attribute, schema);
      CompareOp op = cond.op;
      double threshold = cond.threshold;
      bool is_level = cond.kind == QualityCondition::Kind::kLevel;
      return [base, col, op, threshold, is_level](const Tuple& t) {
        double q = is_level
                       ? static_cast<double>(IntrinsicLevel(*base, t[col]))
                       : QualityDistance(*base, t[col]);
        return EvalCompare(Value(q), op, Value(threshold));
      };
    }
  }
  throw BadArgumentError("unknown quality condition kind");
}

namespace {

std::vector<size_t> SortedUnique(std::vector<size_t> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

void CollectConditionColumns(const Condition& cond, const Schema& schema,
                             std::vector<size_t>* out) {
  if (cond.kind == Condition::Kind::kCompare ||
      cond.kind == Condition::Kind::kInList) {
    out->push_back(ColumnOf(cond.attribute, schema));
  }
  for (const auto& child : cond.children) {
    CollectConditionColumns(*child, schema, out);
  }
}

void CollectQualityColumns(const QualityCondition& cond, const Schema& schema,
                           std::vector<size_t>* out) {
  if (cond.kind == QualityCondition::Kind::kLevel ||
      cond.kind == QualityCondition::Kind::kDistance) {
    out->push_back(ColumnOf(cond.attribute, schema));
  }
  for (const auto& child : cond.children) {
    CollectQualityColumns(*child, schema, out);
  }
}

}  // namespace

std::vector<size_t> ConditionColumns(const Condition& cond,
                                     const Schema& schema) {
  std::vector<size_t> cols;
  CollectConditionColumns(cond, schema, &cols);
  return SortedUnique(std::move(cols));
}

std::vector<size_t> QualityConditionColumns(const QualityCondition& cond,
                                            const Schema& schema) {
  std::vector<size_t> cols;
  CollectQualityColumns(cond, schema, &cols);
  return SortedUnique(std::move(cols));
}

}  // namespace prefdb::psql
