#include <gtest/gtest.h>

#include <random>

#include "constraints/checker.h"
#include "constraints/constraint_parser.h"
#include "constraints/incremental.h"

namespace xic {
namespace {

// db -> (person*, dept*): attribute-only fields so incremental mode
// applies.
DtdStructure MakeDtd() {
  DtdStructure dtd;
  EXPECT_TRUE(dtd.AddElement("db", "(person*, dept*)").ok());
  EXPECT_TRUE(dtd.AddElement("person", "EMPTY").ok());
  EXPECT_TRUE(dtd.AddElement("dept", "EMPTY").ok());
  EXPECT_TRUE(
      dtd.AddAttribute("person", "oid", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.SetKind("person", "oid", AttrKind::kId).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("person", "name", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("person", "dept", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("person", "friends", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.AddAttribute("dept", "oid", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.SetKind("dept", "oid", AttrKind::kId).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("dept", "dname", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.SetRoot("db").ok());
  EXPECT_TRUE(dtd.Validate().ok());
  return dtd;
}

ConstraintSet MakeSigma() {
  Result<ConstraintSet> sigma = ParseConstraintSet(R"(
    key person.name
    key dept.dname
    fk person.dept -> dept.dname
    sfk person.friends -> person.name
    id person.oid
    id dept.oid
  )", Language::kLid);
  EXPECT_TRUE(sigma.ok()) << sigma.status();
  return sigma.value();
}

TEST(Incremental, StartsConsistentAndTracksKeyViolations) {
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  ASSERT_TRUE(inc.status().ok()) << inc.status();
  EXPECT_TRUE(inc.consistent());

  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(inc.consistent());

  // A person with unset fields is inconsistent (incomplete tuples).
  Result<VertexId> p1 = inc.AddElement(root.value(), "person");
  ASSERT_TRUE(p1.ok());
  EXPECT_FALSE(inc.consistent());

  // Filling in every field restores consistency (with a dept to refer
  // to).
  Result<VertexId> d1 = inc.AddElement(root.value(), "dept");
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(inc.SetAttribute(d1.value(), "oid", "d1").ok());
  ASSERT_TRUE(inc.SetAttribute(d1.value(), "dname", "CS").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "oid", "p1").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "name", "Ada").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "dept", "CS").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "friends", AttrValue{}).ok());
  EXPECT_TRUE(inc.consistent()) << inc.violation_count();

  // Duplicate key: second person with the same name.
  Result<VertexId> p2 = inc.AddElement(root.value(), "person");
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(inc.SetAttribute(p2.value(), "oid", "p2").ok());
  ASSERT_TRUE(inc.SetAttribute(p2.value(), "name", "Ada").ok());
  ASSERT_TRUE(inc.SetAttribute(p2.value(), "dept", "CS").ok());
  ASSERT_TRUE(inc.SetAttribute(p2.value(), "friends", AttrValue{}).ok());
  EXPECT_FALSE(inc.consistent());
  // Renaming repairs it.
  ASSERT_TRUE(inc.SetAttribute(p2.value(), "name", "Bob").ok());
  EXPECT_TRUE(inc.consistent());
}

TEST(Incremental, ForeignKeyDanglingAndRepair) {
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  Result<VertexId> p = inc.AddElement(root.value(), "person");
  ASSERT_TRUE(inc.SetAttribute(p.value(), "oid", "p1").ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "name", "Ada").ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "friends", AttrValue{}).ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "dept", "Ghost").ok());
  EXPECT_FALSE(inc.consistent());  // dangling fk
  // Creating the dept repairs the reference.
  Result<VertexId> d = inc.AddElement(root.value(), "dept");
  ASSERT_TRUE(inc.SetAttribute(d.value(), "oid", "d1").ok());
  ASSERT_TRUE(inc.SetAttribute(d.value(), "dname", "Ghost").ok());
  EXPECT_TRUE(inc.consistent()) << inc.violation_count();
  // Renaming the dept re-breaks it.
  ASSERT_TRUE(inc.SetAttribute(d.value(), "dname", "Other").ok());
  EXPECT_FALSE(inc.consistent());
}

TEST(Incremental, SetForeignKeyMembers) {
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  Result<VertexId> p1 = inc.AddElement(root.value(), "person");
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "oid", "p1").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "name", "Ada").ok());
  Result<VertexId> d = inc.AddElement(root.value(), "dept");
  ASSERT_TRUE(inc.SetAttribute(d.value(), "oid", "d1").ok());
  ASSERT_TRUE(inc.SetAttribute(d.value(), "dname", "CS").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "dept", "CS").ok());
  // friends refer to person names (self-type set fk).
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "friends",
                               AttrValue{"Ada"}).ok());
  EXPECT_TRUE(inc.consistent()) << inc.violation_count();
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "friends",
                               AttrValue{"Ada", "Nobody"}).ok());
  EXPECT_FALSE(inc.consistent());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "friends", AttrValue{}).ok());
  EXPECT_TRUE(inc.consistent());
}

TEST(Incremental, DocumentWideIdConflicts) {
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  Result<VertexId> p = inc.AddElement(root.value(), "person");
  ASSERT_TRUE(inc.SetAttribute(p.value(), "oid", "x").ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "name", "Ada").ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "friends", AttrValue{}).ok());
  Result<VertexId> d = inc.AddElement(root.value(), "dept");
  ASSERT_TRUE(inc.SetAttribute(d.value(), "oid", "x").ok());  // clash!
  ASSERT_TRUE(inc.SetAttribute(d.value(), "dname", "CS").ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "dept", "CS").ok());
  EXPECT_FALSE(inc.consistent());
  EXPECT_EQ(inc.id_conflicts(), 2u);  // both holders are constrained
  ASSERT_TRUE(inc.SetAttribute(d.value(), "oid", "y").ok());
  EXPECT_TRUE(inc.consistent()) << inc.violation_count();
  EXPECT_EQ(inc.id_conflicts(), 0u);
}

TEST(Incremental, RejectsUnsupportedForms) {
  DtdStructure dtd = MakeDtd();
  // Inverse constraints are unsupported.
  ConstraintSet with_inverse;
  with_inverse.language = Language::kLid;
  with_inverse.constraints = {
      Constraint::InverseId("person", "friends", "dept", "dname")};
  EXPECT_EQ(IncrementalChecker(dtd, with_inverse).status().code(),
            StatusCode::kNotSupported);
  // Sub-element fields are unsupported.
  ConstraintSet with_subelement;
  with_subelement.language = Language::kLu;
  with_subelement.constraints = {Constraint::UnaryKey("person", "ghost")};
  EXPECT_EQ(IncrementalChecker(dtd, with_subelement).status().code(),
            StatusCode::kNotSupported);
  // ... whatever the constraint kind reading them.
  for (const Constraint& c :
       {Constraint::SetForeignKey("person", "ghost", "person", "name"),
        Constraint::SetForeignKey("person", "friends", "dept", "ghost"),
        Constraint::Id("person", "ghost")}) {
    ConstraintSet sigma;
    sigma.language = Language::kLid;
    sigma.constraints = {c};
    Status status = IncrementalChecker(dtd, sigma).status();
    EXPECT_EQ(status.code(), StatusCode::kNotSupported) << c.ToString();
    EXPECT_NE(status.message().find("ghost is not an attribute"),
              std::string::npos)
        << status;
  }
}

// A constraint built through the API with an empty field list reads
// nothing; the batch checker skips it, and so must the incremental one
// (instead of reading the first field of an empty list).
TEST(Incremental, EmptyFieldListsReadNothing) {
  DtdStructure dtd = MakeDtd();
  Constraint sfk =
      Constraint::SetForeignKey("person", "friends", "person", "name");
  sfk.attrs.clear();
  Constraint sfk_no_target =
      Constraint::SetForeignKey("person", "friends", "person", "name");
  sfk_no_target.ref_attrs.clear();
  Constraint id = Constraint::Id("person", "oid");
  id.attrs.clear();
  for (const Constraint& c : {sfk, sfk_no_target, id}) {
    ConstraintSet sigma;
    sigma.language = Language::kLid;
    sigma.constraints = {c};
    IncrementalChecker inc(dtd, sigma);
    ASSERT_TRUE(inc.status().ok()) << inc.status();
    ConstraintChecker batch(dtd, sigma);
    ASSERT_TRUE(inc.AddElement(kInvalidVertex, "db").ok());
    for (int i = 0; i < 2; ++i) {
      Result<VertexId> p = inc.AddElement(0, "person");
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE(inc.SetAttribute(p.value(), "oid", "same").ok());
      ASSERT_TRUE(
          inc.SetAttribute(p.value(), "friends", AttrValue{"nobody"}).ok());
      EXPECT_TRUE(inc.consistent()) << inc.violation_count();
      EXPECT_EQ(inc.consistent(), batch.Check(inc.tree()).ok());
    }
  }
}

TEST(Incremental, UpdateValidation) {
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  EXPECT_FALSE(inc.AddElement(kInvalidVertex, "alien").ok());
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  ASSERT_TRUE(root.ok());
  EXPECT_FALSE(inc.AddElement(kInvalidVertex, "person").ok());
  Result<VertexId> p = inc.AddElement(root.value(), "person");
  EXPECT_FALSE(inc.SetAttribute(p.value(), "bogus", "x").ok());
  EXPECT_FALSE(
      inc.SetAttribute(p.value(), "name", AttrValue{"a", "b"}).ok());
  EXPECT_FALSE(inc.SetAttribute(99, "name", "x").ok());
}

// Golden accounting: a fixed script over keys, foreign keys (one
// reflexive, one swapped two-field FK on the same type), a set-valued FK
// and document-wide IDs, with self-referencing rows and rejected ops.
// After every op the line records violation_count(), the
// per_constraint_violations() vector and id_conflicts(): the exact
// counts xicd session replies print, where the parity tests and the
// fuzz oracle compare only verdicts.
TEST(Incremental, GoldenCountsAfterEveryOp) {
  DtdStructure dtd;
  ASSERT_TRUE(dtd.AddElement("db", "(person*, dept*, proj*)").ok());
  ASSERT_TRUE(dtd.AddElement("person", "EMPTY").ok());
  ASSERT_TRUE(dtd.AddElement("dept", "EMPTY").ok());
  ASSERT_TRUE(dtd.AddElement("proj", "EMPTY").ok());
  for (const char* a : {"oid", "name", "dept", "boss"}) {
    ASSERT_TRUE(dtd.AddAttribute("person", a, AttrCardinality::kSingle).ok());
  }
  ASSERT_TRUE(
      dtd.AddAttribute("person", "friends", AttrCardinality::kSet).ok());
  for (const char* a : {"oid", "dname", "head"}) {
    ASSERT_TRUE(dtd.AddAttribute("dept", a, AttrCardinality::kSingle).ok());
  }
  ASSERT_TRUE(dtd.AddAttribute("proj", "pid", AttrCardinality::kSingle).ok());
  ASSERT_TRUE(dtd.SetKind("person", "oid", AttrKind::kId).ok());
  ASSERT_TRUE(dtd.SetKind("dept", "oid", AttrKind::kId).ok());
  ASSERT_TRUE(dtd.SetKind("proj", "pid", AttrKind::kId).ok());
  ASSERT_TRUE(dtd.SetRoot("db").ok());
  ASSERT_TRUE(dtd.Validate().ok());
  Result<ConstraintSet> sigma = ParseConstraintSet(R"(
    key person.name
    key dept[dname,head]
    fk person.dept -> dept.dname
    fk person.boss -> person.name
    fk dept.dname -> dept.dname
    fk dept[dname,head] -> dept[head,dname]
    sfk person.friends -> person.name
    id person.oid
    id dept.oid
  )", Language::kLid);
  ASSERT_TRUE(sigma.ok()) << sigma.status();
  IncrementalChecker inc(dtd, sigma.value());
  ASSERT_TRUE(inc.status().ok()) << inc.status();

  struct Op {
    VertexId v;         // parent (add) or target vertex (set)
    std::string name;   // label (add) or attribute (set)
    std::vector<std::string> values;
    bool add = false;
  };
  auto add = [](VertexId parent, std::string label) {
    return Op{parent, std::move(label), {}, true};
  };
  auto set = [](VertexId v, std::string attr,
                std::vector<std::string> values) {
    return Op{v, std::move(attr), std::move(values)};
  };
  const std::vector<Op> script = {
      add(kInvalidVertex, "db"),                     // v0
      add(0, "person"),                              // v1
      set(1, "oid", {"x1"}),
      set(1, "name", {"ada"}),
      set(1, "boss", {"ada"}),                       // self-referencing row
      set(1, "friends", {"ada", "bob"}),             // bob dangles
      set(1, "dept", {"cs"}),                        // cs dangles
      add(0, "dept"),                                // v2
      set(2, "dname", {"cs"}),
      set(2, "head", {"cs"}),                        // swapped FK self-match
      set(2, "oid", {"x1"}),                         // ID clash with v1
      add(0, "person"),                              // v3
      set(3, "name", {"bob"}),                       // repairs ada's friend
      set(3, "oid", {"x3"}),
      set(3, "boss", {"ada"}),
      set(3, "dept", {"cs"}),
      set(3, "friends", {}),
      set(3, "name", {"ada"}),                       // duplicate key
      add(0, "proj"),                                // v4: unconstrained ID
      set(4, "pid", {"x3"}),                         // clash, one side counted
      set(4, "pid", {"x1"}),                         // three holders of x1
      add(0, "dept"),                                // v5
      set(5, "dname", {"ee"}),
      set(5, "head", {"cs"}),                        // [ee,cs] needs [cs,ee]
      set(2, "head", {"ee"}),                        // now both rows match
      set(5, "dname", {"cs"}),                       // [cs,cs]
      set(5, "head", {"ee"}),                        // duplicate [cs,ee]
      set(2, "dname", {"ops"}),
      set(2, "oid", {"x2"}),                         // releases x1 clash
      set(1, "name", {"bob"}),                       // ends the duplicate name
      set(1, "bogus", {"z"}),                        // rejected
      set(1, "name", {"a", "b"}),                    // rejected
      add(99, "person"),                             // rejected
      set(5, "oid", {"x3"}),
      set(3, "oid", {"x5"}),
      set(1, "friends", {"ada", "bob", "cy"}),
      set(4, "pid", {"x5"}),
  };
  std::string got;
  for (const Op& op : script) {
    Status s = op.add ? inc.AddElement(op.v, op.name).status()
                      : inc.SetAttribute(
                            op.v, op.name,
                            AttrValue(op.values.begin(), op.values.end()));
    got += (s.ok() ? "ok " : "rejected ") +
           std::to_string(inc.violation_count()) + " [";
    for (size_t i = 0; i < inc.per_constraint_violations().size(); ++i) {
      if (i > 0) got += ",";
      got += std::to_string(inc.per_constraint_violations()[i]);
    }
    got += "] ids " + std::to_string(inc.id_conflicts()) + "\n";
  }
  EXPECT_EQ(got, R"(ok 0 [0,0,0,0,0,0,0,0,0] ids 0
ok 5 [1,0,1,1,0,0,1,1,0] ids 0
ok 4 [1,0,1,1,0,0,1,0,0] ids 0
ok 3 [0,0,1,1,0,0,1,0,0] ids 0
ok 2 [0,0,1,0,0,0,1,0,0] ids 0
ok 2 [0,0,1,0,0,0,1,0,0] ids 0
ok 2 [0,0,1,0,0,0,1,0,0] ids 0
ok 6 [0,1,1,0,1,1,1,0,1] ids 0
ok 4 [0,1,0,0,0,1,1,0,1] ids 0
ok 2 [0,0,0,0,0,0,1,0,1] ids 0
ok 3 [0,0,0,0,0,0,1,0,0] ids 2
ok 8 [1,0,1,1,0,0,2,1,0] ids 2
ok 6 [0,0,1,1,0,0,1,1,0] ids 2
ok 5 [0,0,1,1,0,0,1,0,0] ids 2
ok 4 [0,0,1,0,0,0,1,0,0] ids 2
ok 3 [0,0,0,0,0,0,1,0,0] ids 2
ok 2 [0,0,0,0,0,0,0,0,0] ids 2
ok 4 [1,0,0,0,0,0,1,0,0] ids 2
ok 4 [1,0,0,0,0,0,1,0,0] ids 2
ok 5 [1,0,0,0,0,0,1,0,0] ids 3
ok 4 [1,0,0,0,0,0,1,0,0] ids 2
ok 8 [1,1,0,0,1,1,1,0,1] ids 2
ok 7 [1,1,0,0,0,1,1,0,1] ids 2
ok 6 [1,0,0,0,0,1,1,0,1] ids 2
ok 5 [1,0,0,0,0,0,1,0,1] ids 2
ok 6 [1,0,0,0,0,1,1,0,1] ids 2
ok 8 [1,1,0,0,0,2,1,0,1] ids 2
ok 7 [1,0,0,0,0,2,1,0,1] ids 2
ok 6 [1,0,0,0,0,2,1,0,1] ids 1
ok 4 [0,0,0,0,0,2,0,0,1] ids 1
rejected 4 [0,0,0,0,0,2,0,0,1] ids 1
rejected 4 [0,0,0,0,0,2,0,0,1] ids 1
rejected 4 [0,0,0,0,0,2,0,0,1] ids 1
ok 5 [0,0,0,0,0,2,0,0,0] ids 3
ok 3 [0,0,0,0,0,2,0,0,0] ids 1
ok 4 [0,0,0,0,0,2,1,0,0] ids 1
ok 4 [0,0,0,0,0,2,1,0,0] ids 1
)");
}

// Randomized parity with the batch checker: after every mutation, the
// incremental consistency bit equals ConstraintChecker's verdict.
class IncrementalParity : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalParity, MatchesBatchChecker) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 2654435761u);
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  ASSERT_TRUE(inc.status().ok());
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  ASSERT_TRUE(root.ok());
  ConstraintChecker batch(dtd, sigma);

  std::vector<VertexId> persons, depts;
  const std::vector<std::string> values = {"a", "b", "c"};
  auto value = [&] { return values[rng() % values.size()]; };

  for (int step = 0; step < 160; ++step) {
    switch (rng() % 6) {
      case 0: {
        Result<VertexId> p = inc.AddElement(root.value(), "person");
        ASSERT_TRUE(p.ok());
        // Populate all fields so "missing" semantics matches the batch
        // checker's strict reading.
        ASSERT_TRUE(inc.SetAttribute(p.value(), "oid",
                                     "p" + std::to_string(step)).ok());
        ASSERT_TRUE(inc.SetAttribute(p.value(), "name", value()).ok());
        ASSERT_TRUE(inc.SetAttribute(p.value(), "dept", value()).ok());
        ASSERT_TRUE(
            inc.SetAttribute(p.value(), "friends", AttrValue{}).ok());
        persons.push_back(p.value());
        break;
      }
      case 1: {
        Result<VertexId> d = inc.AddElement(root.value(), "dept");
        ASSERT_TRUE(d.ok());
        ASSERT_TRUE(inc.SetAttribute(d.value(), "oid",
                                     "d" + std::to_string(step)).ok());
        ASSERT_TRUE(inc.SetAttribute(d.value(), "dname", value()).ok());
        depts.push_back(d.value());
        break;
      }
      case 2:
        if (!persons.empty()) {
          ASSERT_TRUE(inc.SetAttribute(persons[rng() % persons.size()],
                                       "name", value())
                          .ok());
        }
        break;
      case 3:
        if (!persons.empty()) {
          AttrValue friends;
          for (size_t i = rng() % 3; i > 0; --i) friends.insert(value());
          ASSERT_TRUE(inc.SetAttribute(persons[rng() % persons.size()],
                                       "friends", std::move(friends))
                          .ok());
        }
        break;
      case 4:
        if (!depts.empty()) {
          ASSERT_TRUE(inc.SetAttribute(depts[rng() % depts.size()], "dname",
                                       value())
                          .ok());
        }
        break;
      case 5:
        if (!persons.empty() && rng() % 4 == 0) {
          // Occasionally forge an ID clash.
          ASSERT_TRUE(inc.SetAttribute(persons[rng() % persons.size()],
                                       "oid", "clash")
                          .ok());
        } else if (!persons.empty()) {
          ASSERT_TRUE(inc.SetAttribute(persons[rng() % persons.size()],
                                       "dept", value())
                          .ok());
        }
        break;
    }
    bool batch_ok = batch.Check(inc.tree()).ok();
    ASSERT_EQ(inc.consistent(), batch_ok)
        << "step " << step << ", incremental count "
        << inc.violation_count();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalParity,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace xic
