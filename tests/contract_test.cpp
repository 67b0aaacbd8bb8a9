// The contract framework and the two protocol state machines it guards.
//
// Positive tests walk the declared lifecycles of tcp::TcpSocket and the
// lsd relay edge by edge; death tests prove that a forbidden transition
// (or a violated macro contract) aborts in the default build
// configuration — the property the rest of the suite relies on when it
// treats "no abort" as "no illegal transition happened".
#include <gtest/gtest.h>

#include "relay/relay_core.hpp"
#include "tcp/tcp.hpp"
#include "util/contract.hpp"

namespace lsl {
namespace {

using util::CheckedState;
using util::TransitionTable;

// --- the template itself, on a toy machine -----------------------------------

enum class Phase { kA, kB, kC };
const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kA:
      return "A";
    case Phase::kB:
      return "B";
    case Phase::kC:
      return "C";
  }
  return "?";
}

constexpr TransitionTable<Phase, 3> kPhaseTable{
    "phase",
    phase_name,
    {{Phase::kA, Phase::kB}, {Phase::kB, Phase::kC}, {Phase::kB, Phase::kA}}};

TEST(TransitionTable, OnlyDeclaredEdgesAllowed) {
  EXPECT_TRUE(kPhaseTable.allowed(Phase::kA, Phase::kB));
  EXPECT_TRUE(kPhaseTable.allowed(Phase::kB, Phase::kA));
  EXPECT_FALSE(kPhaseTable.allowed(Phase::kA, Phase::kC));
  EXPECT_FALSE(kPhaseTable.allowed(Phase::kC, Phase::kA));
  EXPECT_FALSE(kPhaseTable.allowed(Phase::kA, Phase::kA));  // no self loops
}

TEST(CheckedState, FollowsLegalPathAndConverts) {
  CheckedState<Phase, 3> s{kPhaseTable, Phase::kA};
  EXPECT_EQ(s.get(), Phase::kA);
  s.transition(Phase::kB);
  s.transition(Phase::kA);
  s.transition(Phase::kB);
  s.transition(Phase::kC);
  EXPECT_TRUE(s == Phase::kC);  // implicit conversion
}

// --- the TCP connection machine ----------------------------------------------

TEST(TcpTransitionTable, ActiveOpenAndCloseLifecycle) {
  const auto& t = tcp::tcp_transition_table();
  using S = tcp::TcpState;
  // Active open, local close, clean FIN handshake.
  EXPECT_TRUE(t.allowed(S::kClosed, S::kSynSent));
  EXPECT_TRUE(t.allowed(S::kSynSent, S::kEstablished));
  EXPECT_TRUE(t.allowed(S::kEstablished, S::kFinWait1));
  EXPECT_TRUE(t.allowed(S::kFinWait1, S::kFinWait2));
  EXPECT_TRUE(t.allowed(S::kFinWait2, S::kClosed));
  // Simultaneous close detour.
  EXPECT_TRUE(t.allowed(S::kFinWait1, S::kClosing));
  EXPECT_TRUE(t.allowed(S::kClosing, S::kClosed));
}

TEST(TcpTransitionTable, PassiveOpenAndRemoteCloseLifecycle) {
  const auto& t = tcp::tcp_transition_table();
  using S = tcp::TcpState;
  EXPECT_TRUE(t.allowed(S::kClosed, S::kSynReceived));
  EXPECT_TRUE(t.allowed(S::kSynReceived, S::kEstablished));
  EXPECT_TRUE(t.allowed(S::kEstablished, S::kCloseWait));
  EXPECT_TRUE(t.allowed(S::kCloseWait, S::kLastAck));
  EXPECT_TRUE(t.allowed(S::kLastAck, S::kClosed));
}

TEST(TcpTransitionTable, ImpossibleEdgesRejected) {
  const auto& t = tcp::tcp_transition_table();
  using S = tcp::TcpState;
  // No handshake shortcut, no resurrection, no FIN-order reversal.
  EXPECT_FALSE(t.allowed(S::kClosed, S::kEstablished));
  EXPECT_FALSE(t.allowed(S::kFinWait2, S::kEstablished));
  EXPECT_FALSE(t.allowed(S::kClosed, S::kFinWait1));
  EXPECT_FALSE(t.allowed(S::kFinWait2, S::kFinWait1));
  EXPECT_FALSE(t.allowed(S::kCloseWait, S::kFinWait1));
}

// --- the lsd relay machine ---------------------------------------------------

TEST(RelayTransitionTable, LifecycleIsLinearWithEarlyFailure) {
  const auto& t = relay::relay_transition_table();
  using S = relay::RelayState;
  EXPECT_TRUE(t.allowed(S::kHeader, S::kDial));
  EXPECT_TRUE(t.allowed(S::kDial, S::kStream));
  EXPECT_TRUE(t.allowed(S::kStream, S::kDone));
  // Failure can strike any live phase.
  EXPECT_TRUE(t.allowed(S::kHeader, S::kDone));
  EXPECT_TRUE(t.allowed(S::kDial, S::kDone));
  // No skipping the dial, no going backwards.
  EXPECT_FALSE(t.allowed(S::kHeader, S::kStream));
  EXPECT_FALSE(t.allowed(S::kStream, S::kHeader));
  EXPECT_FALSE(t.allowed(S::kDial, S::kHeader));
}

TEST(RelayTransitionTable, DoneIsTerminal) {
  const auto& t = relay::relay_transition_table();
  using S = relay::RelayState;
  for (S to : {S::kHeader, S::kDial, S::kStream, S::kDone}) {
    EXPECT_FALSE(t.allowed(S::kDone, to)) << to_string(to);
  }
}

// --- aborts (contracts are ON in the default configuration) ------------------

#if !defined(LSL_CONTRACTS_OFF)

TEST(ContractDeathTest, ForbiddenTcpTransitionAborts) {
  using S = tcp::TcpState;
  CheckedState<S, tcp::kTcpStateCount> s{tcp::tcp_transition_table(),
                                         S::kClosed};
  EXPECT_DEATH(s.transition(S::kEstablished),
               "forbidden state transition in machine 'tcp'");
}

TEST(ContractDeathTest, TouchingAFinishedRelayAborts) {
  // The PR 1 use-after-free scenario: a relay that already reached kDone
  // being driven again. With the checked lifecycle this is an immediate,
  // attributable abort instead of heap corruption.
  using S = relay::RelayState;
  CheckedState<S, relay::kRelayStateCount> s{relay::relay_transition_table(),
                                             S::kHeader};
  s.transition(S::kDone);
  EXPECT_DEATH(s.transition(S::kStream),
               "forbidden state transition in machine 'lsd-relay'");
}

TEST(ContractDeathTest, PreconditionReportsExpressionAndMessage) {
  const int two = 2;
  EXPECT_DEATH(LSL_PRECONDITION(1 == two, "arithmetic changed"),
               "precondition violated.*1 == two.*arithmetic changed");
}

TEST(ContractDeathTest, InvariantAborts) {
  const bool consistent = false;
  EXPECT_DEATH(LSL_INVARIANT(consistent, "state went sideways"),
               "invariant violated");
}

TEST(ContractDeathTest, UnreachableAborts) {
  EXPECT_DEATH(LSL_UNREACHABLE("fell off the state machine"),
               "unreachable violated.*fell off the state machine");
}

#endif  // LSL_CONTRACTS_OFF

}  // namespace
}  // namespace lsl
