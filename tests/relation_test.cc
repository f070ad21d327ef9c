// Unit tests for the relational substrate: Schema, Tuple, Relation, CSV.

#include "relation/relation.h"

#include <gtest/gtest.h>

#include "relation/csv.h"

namespace prefdb {
namespace {

Schema CarSchema() {
  return Schema({{"make", ValueType::kString},
                 {"price", ValueType::kInt},
                 {"color", ValueType::kString}});
}

Relation SmallCars() {
  Relation rel(CarSchema());
  rel.Add({"Audi", 40000, "red"});
  rel.Add({"BMW", 35000, "blue"});
  rel.Add({"VW", 20000, "red"});
  rel.Add({"BMW", 50000, "red"});
  return rel;
}

TEST(SchemaTest, IndexOfFindsAttributes) {
  Schema s = CarSchema();
  EXPECT_EQ(*s.IndexOf("make"), 0u);
  EXPECT_EQ(*s.IndexOf("price"), 1u);
  EXPECT_FALSE(s.IndexOf("mileage").has_value());
  EXPECT_TRUE(s.Has("color"));
}

TEST(SchemaTest, AddRejectsDuplicatesSilently) {
  Schema s = CarSchema();
  size_t idx = s.Add({"make", ValueType::kString});
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(s.size(), 3u);
}

TEST(SchemaTest, ProjectPreservesRequestedOrder) {
  Schema s = CarSchema().Project({"color", "make"});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.at(0).name, "color");
  EXPECT_EQ(s.at(1).name, "make");
}

TEST(SchemaTest, ToStringRendersTypes) {
  EXPECT_EQ(Schema({{"a", ValueType::kInt}}).ToString(), "(a:INT)");
}

TEST(TupleTest, ProjectionPicksIndices) {
  Tuple t({Value(1), Value("x"), Value(2.5)});
  Tuple p = t.Project({2, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], Value(2.5));
  EXPECT_EQ(p[1], Value(1));
}

TEST(TupleTest, EqualityAndHash) {
  Tuple a({Value(1), Value("x")});
  Tuple b({Value(1), Value("x")});
  Tuple c({Value(1), Value("y")});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
}

TEST(TupleTest, LexicographicOrder) {
  EXPECT_LT(Tuple({Value(1), Value(5)}), Tuple({Value(2), Value(0)}));
  EXPECT_LT(Tuple({Value(1)}), Tuple({Value(1), Value(0)}));
}

TEST(RelationTest, AddValidatesArity) {
  Relation rel(CarSchema());
  EXPECT_THROW(rel.Add({Value(1)}), std::invalid_argument);
}

TEST(RelationTest, ResolveColumnsThrowsOnUnknown) {
  EXPECT_THROW(SmallCars().ResolveColumns({"nope"}), std::out_of_range);
}

TEST(RelationTest, ProjectKeepsBagSemantics) {
  Relation p = SmallCars().Project({"color"});
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.schema().size(), 1u);
}

TEST(RelationTest, FilterSelectsMatchingRows) {
  Relation cheap = SmallCars().Filter(
      [](const Tuple& t) { return t[1] < Value(40000); });
  EXPECT_EQ(cheap.size(), 2u);
}

TEST(RelationTest, DistinctRemovesDuplicateRows) {
  Relation rel(CarSchema());
  rel.Add({"Audi", 1, "red"});
  rel.Add({"Audi", 1, "red"});
  rel.Add({"Audi", 2, "red"});
  EXPECT_EQ(rel.Distinct().size(), 2u);
}

TEST(RelationTest, DistinctProjectionsDeduplicates) {
  auto projs = SmallCars().DistinctProjections({"color"});
  EXPECT_EQ(projs.size(), 2u);  // red, blue
}

TEST(RelationTest, SortedIsDeterministic) {
  Relation sorted = SmallCars().Sorted({"price"});
  EXPECT_EQ(sorted.at(0)[1], Value(20000));
  EXPECT_EQ(sorted.at(3)[1], Value(50000));
}

TEST(RelationTest, GroupRowsByGroupsEqualKeys) {
  Relation cars = SmallCars();
  const std::vector<size_t> make = {*cars.schema().IndexOf("make")};
  // Audi, BMW, VW in first-occurrence order; rows in scan order.
  EXPECT_EQ(GroupRowsBy(cars, make),
            (std::vector<std::vector<size_t>>{{0}, {1, 3}, {2}}));
  // A pool restricts and reorders the scan; rows stay global indices.
  const std::vector<size_t> pool = {3, 2, 1};
  EXPECT_EQ(GroupRowsBy(cars, make, &pool),
            (std::vector<std::vector<size_t>>{{3, 1}, {2}}));
}

TEST(RelationTest, SelectRowsPicksByIndex) {
  Relation sel = SmallCars().SelectRows({0, 2});
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel.at(1)[0], Value("VW"));
}

TEST(RelationTest, IndexSetOperations) {
  std::vector<size_t> a = {1, 3, 5, 7};
  std::vector<size_t> b = {3, 4, 5};
  EXPECT_EQ(Relation::IndexIntersect(a, b), (std::vector<size_t>{3, 5}));
  EXPECT_EQ(Relation::IndexUnion(a, b),
            (std::vector<size_t>{1, 3, 4, 5, 7}));
}

TEST(RelationTest, SameRowsIgnoresOrder) {
  Relation a = SmallCars();
  Relation b(CarSchema());
  b.Add({"BMW", 50000, "red"});
  b.Add({"VW", 20000, "red"});
  b.Add({"Audi", 40000, "red"});
  b.Add({"BMW", 35000, "blue"});
  EXPECT_TRUE(a.SameRows(b));
  b.Add({"VW", 20000, "red"});
  EXPECT_FALSE(a.SameRows(b));
}

TEST(RelationTest, ToStringRendersTable) {
  std::string s = SmallCars().ToString();
  EXPECT_NE(s.find("make"), std::string::npos);
  EXPECT_NE(s.find("'Audi'"), std::string::npos);
}

TEST(CsvTest, RoundTrip) {
  Relation cars = SmallCars();
  std::string csv = WriteCsv(cars);
  Relation back = ReadCsv(csv, cars.schema());
  EXPECT_TRUE(cars.SameRows(back));
}

TEST(CsvTest, QuotedFieldsWithCommas) {
  Schema s({{"name", ValueType::kString}, {"n", ValueType::kInt}});
  Relation rel = ReadCsv("name,n\n\"a,b\",3\n", s);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.at(0)[0], Value("a,b"));
}

TEST(CsvTest, EscapedQuotes) {
  Schema s({{"name", ValueType::kString}});
  Relation rel = ReadCsv("name\n\"say \"\"hi\"\"\"\n", s);
  EXPECT_EQ(rel.at(0)[0], Value("say \"hi\""));
}

TEST(CsvTest, HeaderMismatchThrows) {
  Schema s({{"a", ValueType::kInt}});
  EXPECT_THROW(ReadCsv("b\n1\n", s), std::invalid_argument);
}

TEST(CsvTest, BadNumericCellThrows) {
  Schema s({{"a", ValueType::kInt}});
  EXPECT_THROW(ReadCsv("a\nxyz\n", s), std::invalid_argument);
}

TEST(CsvTest, EmptyFieldBecomesNull) {
  Schema s({{"a", ValueType::kInt}, {"b", ValueType::kString}});
  Relation rel = ReadCsv("a,b\n,\n", s);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.at(0)[0].is_null());
  EXPECT_TRUE(rel.at(0)[1].is_null());
}

}  // namespace
}  // namespace prefdb
