#include <gtest/gtest.h>

#include <string>

#include "cat/cat_controller.h"
#include "cat/resctrl.h"

namespace catdb::cat {
namespace {

TEST(CatControllerTest, DefaultsToFullMaskClosZero) {
  CatController cat(20, 8);
  EXPECT_EQ(cat.full_mask(), 0xFFFFFull);
  for (uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(cat.CoreClos(c), 0u);
    EXPECT_EQ(cat.CoreMask(c), 0xFFFFFull);
  }
}

// Property sweep over mask validation, mirroring the Intel CAT rules.
//
// gtest prints a MaskCase as its raw bytes, and those bytes become part of
// each case's ctest name. `id` fills the bytes after `valid` that would
// otherwise be uninitialised padding, so the names are the same on every
// build. The id values are arbitrary but fixed.
struct MaskCase {
  uint64_t mask;
  bool valid;
  uint8_t id[7];
};
static_assert(sizeof(MaskCase) == 16, "MaskCase has no padding left");

class MaskValidationTest : public ::testing::TestWithParam<MaskCase> {};

TEST_P(MaskValidationTest, ValidatesPerHardwareRules) {
  CatController cat(20, 8);
  EXPECT_EQ(cat.ValidateMask(GetParam().mask).ok(), GetParam().valid);
}

INSTANTIATE_TEST_SUITE_P(
    Masks, MaskValidationTest,
    ::testing::Values(
        MaskCase{0x1, true, {}},                // single low way
        MaskCase{0x3, true, {0xFF, 0x85}},      // the paper's 10 % mask
        MaskCase{0xFFF, true, {0x23, 0xC7}},    // the paper's 60 % mask
        MaskCase{0xFFFFF, true,                 // full
                 {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
        MaskCase{0xC, true, {0x84, 0xD1}},      // contiguous, shifted
        MaskCase{0xF0000, true, {0x5E, 0xD4}},  // top ways
        MaskCase{0x0, false, {0xFF, 0x91}},     // empty
        MaskCase{0x5, false, {0x23, 0xC7}},     // non-contiguous
        MaskCase{0xF0F, false, {0x23, 0xC7}},   // non-contiguous
        MaskCase{0x100001, false,               // beyond 20 ways
                 {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
        MaskCase{~0ull, false, {0x84, 0xD1}}));

TEST(CatControllerTest, SetAndGetClosMask) {
  CatController cat(20, 8);
  ASSERT_TRUE(cat.SetClosMask(3, 0x3).ok());
  auto mask = cat.GetClosMask(3);
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ(mask.value(), 0x3u);
}

TEST(CatControllerTest, RejectsOutOfRangeClos) {
  CatController cat(20, 8, /*max_clos=*/16);
  EXPECT_EQ(cat.SetClosMask(16, 0x3).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(cat.GetClosMask(16).ok());
  EXPECT_EQ(cat.AssignCore(0, 16).code(), StatusCode::kOutOfRange);
}

TEST(CatControllerTest, AssignCoreChangesEffectiveMask) {
  CatController cat(20, 8);
  ASSERT_TRUE(cat.SetClosMask(1, 0x3).ok());
  ASSERT_TRUE(cat.AssignCore(5, 1).ok());
  EXPECT_EQ(cat.CoreMask(5), 0x3u);
  EXPECT_EQ(cat.CoreMask(4), 0xFFFFFull);
}

TEST(CatControllerTest, RejectsOutOfRangeCore) {
  CatController cat(20, 4);
  EXPECT_EQ(cat.AssignCore(4, 0).code(), StatusCode::kOutOfRange);
}

TEST(CatControllerTest, CountsWrites) {
  CatController cat(20, 8);
  (void)cat.SetClosMask(1, 0x3);
  (void)cat.AssignCore(0, 1);
  (void)cat.AssignCore(1, 1);
  EXPECT_EQ(cat.mask_writes(), 1u);
  EXPECT_EQ(cat.core_assignments(), 2u);
  cat.Reset();
  EXPECT_EQ(cat.mask_writes(), 0u);
  EXPECT_EQ(cat.CoreMask(0), cat.full_mask());
}

TEST(SchemataParseTest, ParsesCanonicalLine) {
  auto r = ParseSchemataLine("L3:0=fffff");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0xFFFFFull);
}

TEST(SchemataParseTest, ToleratesWhitespaceAndCase) {
  auto r = ParseSchemataLine("  L3:0 = FfF \n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0xFFFull);
}

TEST(SchemataParseTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseSchemataLine("").ok());
  EXPECT_FALSE(ParseSchemataLine("L2:0=f").ok());
  EXPECT_FALSE(ParseSchemataLine("L3:1=f").ok());  // only domain 0 exists
  EXPECT_FALSE(ParseSchemataLine("L3:0=").ok());
  EXPECT_FALSE(ParseSchemataLine("L3:0=xyz").ok());
  EXPECT_FALSE(ParseSchemataLine("L3:0").ok());
  EXPECT_FALSE(ParseSchemataLine("L3:0=fffffffffffffffff").ok());
}

TEST(SchemataFormatTest, RoundTrips) {
  auto r = ParseSchemataLine(FormatSchemataLine(0x3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0x3u);
}

class ResctrlTest : public ::testing::Test {
 protected:
  ResctrlTest() : cat_(20, 8), fs_(&cat_) {}
  CatController cat_;
  ResctrlFs fs_;
};

TEST_F(ResctrlTest, CreateGroupAndWriteSchemata) {
  ASSERT_TRUE(fs_.CreateGroup("polluting").ok());
  ASSERT_TRUE(fs_.WriteSchemata("polluting", "L3:0=3").ok());
  auto line = fs_.ReadSchemata("polluting");
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line.value(), "L3:0=3");
}

TEST_F(ResctrlTest, GroupNamesExcludesDefault) {
  (void)fs_.CreateGroup("a");
  (void)fs_.CreateGroup("b");
  EXPECT_EQ(fs_.GroupNames().size(), 2u);
}

TEST_F(ResctrlTest, RejectsDuplicateAndUnknownGroups) {
  ASSERT_TRUE(fs_.CreateGroup("g").ok());
  EXPECT_EQ(fs_.CreateGroup("g").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(fs_.WriteSchemata("nope", "L3:0=3").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fs_.AssignTask(1, "nope").code(), StatusCode::kNotFound);
}

TEST_F(ResctrlTest, SchemataValidationPropagates) {
  ASSERT_TRUE(fs_.CreateGroup("g").ok());
  EXPECT_EQ(fs_.WriteSchemata("g", "L3:0=5").code(),
            StatusCode::kInvalidArgument);  // non-contiguous
}

TEST_F(ResctrlTest, ClosExhaustionMatchesHardwareLimit) {
  // CLOS 0 is the default group; 15 more fit on a 16-CLOS part.
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(fs_.CreateGroup("g" + std::to_string(i)).ok());
  }
  EXPECT_EQ(fs_.CreateGroup("one_too_many").code(),
            StatusCode::kResourceExhausted);
  // Removing a group frees its CLOS.
  ASSERT_TRUE(fs_.RemoveGroup("g0").ok());
  EXPECT_TRUE(fs_.CreateGroup("again").ok());
}

TEST_F(ResctrlTest, TaskAssignmentAndContextSwitch) {
  ASSERT_TRUE(fs_.CreateGroup("polluting").ok());
  ASSERT_TRUE(fs_.WriteSchemata("polluting", "L3:0=3").ok());
  ASSERT_TRUE(fs_.AssignTask(7, "polluting").ok());
  EXPECT_EQ(fs_.GroupOfTask(7), "polluting");

  EXPECT_TRUE(fs_.OnContextSwitch(7, 2));  // core 2 was CLOS 0
  EXPECT_EQ(cat_.CoreMask(2), 0x3u);
  EXPECT_FALSE(fs_.OnContextSwitch(7, 2));  // already the right CLOS
  EXPECT_EQ(fs_.reassociations(), 1u);
  EXPECT_EQ(fs_.skipped_reassociations(), 1u);
}

TEST_F(ResctrlTest, UnassignedTasksUseDefaultGroup) {
  EXPECT_EQ(fs_.GroupOfTask(42), "");
  EXPECT_EQ(fs_.ClosOfTask(42), 0u);
  EXPECT_FALSE(fs_.OnContextSwitch(42, 0));
}

TEST_F(ResctrlTest, RemoveGroupReturnsTasksToDefault) {
  ASSERT_TRUE(fs_.CreateGroup("g").ok());
  ASSERT_TRUE(fs_.AssignTask(1, "g").ok());
  ASSERT_TRUE(fs_.RemoveGroup("g").ok());
  EXPECT_EQ(fs_.GroupOfTask(1), "");
}

TEST_F(ResctrlTest, CannotRemoveDefaultGroup) {
  EXPECT_FALSE(fs_.RemoveGroup("").ok());
}

TEST_F(ResctrlTest, RemoveGroupDropsCoreAssociations) {
  ASSERT_TRUE(fs_.CreateGroup("g").ok());
  ASSERT_TRUE(fs_.WriteSchemata("g", "L3:0=3").ok());
  ASSERT_TRUE(fs_.AssignTask(1, "g").ok());
  ASSERT_TRUE(fs_.OnContextSwitch(1, 3));
  const ClosId removed = fs_.ClosOfTask(1);
  EXPECT_EQ(cat_.CoreClos(3), removed);
  EXPECT_EQ(cat_.CoreMask(3), 0x3u);

  ASSERT_TRUE(fs_.RemoveGroup("g").ok());
  // The core must not keep running under the freed CLOS: a later group
  // that reuses it would silently inherit the core (and its mask).
  EXPECT_EQ(cat_.CoreClos(3), 0u);
  EXPECT_EQ(cat_.CoreMask(3), cat_.full_mask());

  // The reused CLOS starts with no cores attached.
  ASSERT_TRUE(fs_.CreateGroup("fresh").ok());
  ASSERT_TRUE(fs_.WriteSchemata("fresh", "L3:0=f").ok());
  for (uint32_t c = 0; c < cat_.num_cores(); ++c) {
    EXPECT_EQ(cat_.CoreClos(c), 0u);
  }
}

TEST_F(ResctrlTest, ResetRestoresMountState) {
  (void)fs_.CreateGroup("g");
  (void)fs_.AssignTask(1, "g");
  (void)fs_.OnContextSwitch(1, 0);
  fs_.Reset();
  EXPECT_TRUE(fs_.GroupNames().empty());
  EXPECT_EQ(fs_.GroupOfTask(1), "");
  EXPECT_EQ(fs_.reassociations(), 0u);
  EXPECT_TRUE(fs_.CreateGroup("g").ok());  // CLOS freed
}

}  // namespace
}  // namespace catdb::cat
