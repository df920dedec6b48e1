// Golden FlowResult digests: the FNV-1a digest of writeFlowResult's bytes
// for the table-3 designs and for three fuzz designs, at the default
// FlowConfig (seed 42, the seed the table-3 bench implements them with),
// and for three registered designs at seeds where the router meets a
// rounding tie.
// Any change to what the C-to-FPGA flow computes (a different placement, a
// different route, a different back-trace) moves a digest, so a change that
// must not alter results checks itself here, and one that alters them on
// purpose updates the literals below in the same commit.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/digit_spam.hpp"
#include "apps/face_detection.hpp"
#include "apps/registry.hpp"
#include "apps/vision_suite.hpp"
#include "core/flow.hpp"
#include "core/flow_serialize.hpp"
#include "fpga/device.hpp"
#include "random_design.hpp"
#include "support/envelope.hpp"

namespace hcp::core {
namespace {

std::string flowDigest(apps::AppDesign&& app, std::uint64_t seed = 42) {
  FlowConfig config;
  config.seed = seed;
  const FlowResult flow =
      runFlow(std::move(app), fpga::Device::xc7z020like(), config);
  std::ostringstream os;
  writeFlowResult(os, flow);
  return support::Fnv1a().bytes(os.str()).hex();
}

TEST(GoldenFlow, FaceDetection) {
  EXPECT_EQ(flowDigest(apps::faceDetection()), "5bea80a47ab0d753");
}

TEST(GoldenFlow, DigitSpam) {
  EXPECT_EQ(flowDigest(apps::digitSpamCombined()), "b7ee19ccb91fa906");
}

TEST(GoldenFlow, VisionCombined) {
  EXPECT_EQ(flowDigest(apps::visionCombined()), "67a15d64c7c920b1");
}

// Flows in which some sink search meets two least-cost paths whose double
// sums differ only by rounding (DESIGN.md §15): a stop bound without its
// rounding slack routes one sink of each differently. Which (design, seed)
// pairs meet such a tie depends on the placements, so a change that moves
// placements on purpose finds them again.
TEST(GoldenFlow, BnnSeed8) {
  EXPECT_EQ(flowDigest(apps::makeDesign("bnn"), 8), "53cde24d53836e08");
}

TEST(GoldenFlow, FaceDetectionReplicatedSeed4) {
  EXPECT_EQ(flowDigest(apps::makeDesign("face_detection_replicated"), 4),
            "7371f954cc64df73");
}

TEST(GoldenFlow, OpticalFlowSeed10) {
  EXPECT_EQ(flowDigest(apps::makeDesign("optical_flow"), 10), "a8ab45850a9310e2");
}

TEST(GoldenFlow, FuzzSeed1) {
  EXPECT_EQ(flowDigest(test::randomDesign(1)), "0fb012abb4ac7082");
}

TEST(GoldenFlow, FuzzSeed2) {
  EXPECT_EQ(flowDigest(test::randomDesign(2)), "38149947c9338c4a");
}

TEST(GoldenFlow, FuzzSeed3) {
  EXPECT_EQ(flowDigest(test::randomDesign(3)), "7e3b9cace5c31668");
}

}  // namespace
}  // namespace hcp::core
