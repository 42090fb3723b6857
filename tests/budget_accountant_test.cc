#include "engine/budget_accountant.h"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

namespace blowfish {
namespace {

TEST(BudgetAccountantTest, SequentialSpendsAccumulate) {
  BudgetAccountant accountant(1.0);
  auto r1 = accountant.ChargeSequential("", 0.3, "q1");
  ASSERT_TRUE(r1.ok());
  EXPECT_DOUBLE_EQ(r1->charged, 0.3);
  EXPECT_DOUBLE_EQ(r1->remaining, 0.7);
  auto r2 = accountant.ChargeSequential("", 0.5, "q2");
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r2->remaining, 0.2);
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.8);
}

TEST(BudgetAccountantTest, RefusesOverspendAndLeavesLedgerUntouched) {
  BudgetAccountant accountant(1.0);
  ASSERT_TRUE(accountant.ChargeSequential("", 0.8).ok());
  auto refused = accountant.ChargeSequential("", 0.3);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // The refused charge must not count.
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.8);
  // A smaller charge that fits still succeeds afterwards.
  EXPECT_TRUE(accountant.ChargeSequential("", 0.2).ok());
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 1.0);
}

TEST(BudgetAccountantTest, ExactBudgetIsAllowed) {
  BudgetAccountant accountant(1.0);
  // Ten charges of 0.1 must sum to exactly the budget despite floating
  // point accumulation.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(accountant.ChargeSequential("", 0.1).ok()) << i;
  }
  EXPECT_FALSE(accountant.ChargeSequential("", 0.01).ok());
}

TEST(BudgetAccountantTest, ParallelGroupCostsMax) {
  BudgetAccountant accountant(1.0);
  auto receipt = accountant.ChargeParallel("", {0.2, 0.5, 0.3}, "group");
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->parallel);
  EXPECT_DOUBLE_EQ(receipt->charged, 0.5);
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.5);
}

TEST(BudgetAccountantTest, SequentialAndParallelChargesCompose) {
  // Thm 4.1 over a Thm 4.2 group: 1.0 + max(0.4, 0.4).
  BudgetAccountant accountant(2.0);
  ASSERT_TRUE(accountant.ChargeSequential("", 1.0).ok());
  ASSERT_TRUE(accountant.ChargeParallel("", {0.4, 0.4}).ok());
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 1.4);
}

TEST(BudgetAccountantTest, ParallelGroupRefusedWhenMaxOverBudget) {
  BudgetAccountant accountant(0.4);
  auto refused = accountant.ChargeParallel("", {0.2, 0.5});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.0);
}

TEST(BudgetAccountantTest, NamedSessionsAreIndependent) {
  BudgetAccountant accountant(1.0);
  ASSERT_TRUE(accountant.OpenSession("alice", 2.0).ok());
  ASSERT_TRUE(accountant.ChargeSequential("alice", 1.5).ok());
  // Auto-created session "bob" still has the default budget.
  ASSERT_TRUE(accountant.ChargeSequential("bob", 0.9).ok());
  EXPECT_DOUBLE_EQ(accountant.Spent("alice"), 1.5);
  EXPECT_DOUBLE_EQ(accountant.Spent("bob"), 0.9);
  EXPECT_DOUBLE_EQ(accountant.Remaining("alice"), 0.5);
  // Alice's extra headroom does not leak to bob.
  EXPECT_FALSE(accountant.ChargeSequential("bob", 0.5).ok());
}

TEST(BudgetAccountantTest, DuplicateOpenSessionFails) {
  BudgetAccountant accountant(1.0);
  ASSERT_TRUE(accountant.OpenSession("alice", 2.0).ok());
  EXPECT_FALSE(accountant.OpenSession("alice", 3.0).ok());
  EXPECT_FALSE(accountant.OpenSession("x", -1.0).ok());
}

TEST(BudgetAccountantTest, RejectsNegativeEpsilon) {
  BudgetAccountant accountant(1.0);
  EXPECT_EQ(accountant.ChargeSequential("", -0.1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant.ChargeParallel("", {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant.ChargeParallel("", {0.1, -0.2}).status().code(),
            StatusCode::kInvalidArgument);
  // NaN fails every comparison, so it must be refused explicitly: it
  // would otherwise charge nothing, or hide behind a group's max.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(accountant.ChargeSequential("", nan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant.ChargeSequential("", inf).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant.ChargeParallel("", {nan, 0.5}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant.ChargeParallel("", {0.5, nan}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.0);
}

TEST(BudgetAccountantTest, RefundRestoresTheBalance) {
  BudgetAccountant accountant(1.0);
  auto receipt = accountant.ChargeSequential("", 0.4, "q");
  ASSERT_TRUE(receipt.ok());
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.4);
  ASSERT_TRUE(accountant.Refund(*receipt).ok());
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.0);
  EXPECT_DOUBLE_EQ(accountant.Remaining(""), 1.0);
  // The refunded epsilon is spendable again.
  EXPECT_TRUE(accountant.ChargeSequential("", 1.0).ok());
}

TEST(BudgetAccountantTest, RefundValidatesItsInputs) {
  BudgetAccountant accountant(1.0);
  BudgetReceipt ghost;
  ghost.session = "nobody";
  ghost.charged = 0.2;
  EXPECT_EQ(accountant.Refund(ghost).code(), StatusCode::kNotFound);

  auto receipt = accountant.ChargeSequential("", 0.3);
  ASSERT_TRUE(receipt.ok());
  BudgetReceipt inflated = *receipt;
  inflated.charged = 0.9;  // more than the session ever spent
  EXPECT_EQ(accountant.Refund(inflated).code(),
            StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.3);

  BudgetReceipt negative = *receipt;
  negative.charged = -0.1;
  EXPECT_EQ(accountant.Refund(negative).code(),
            StatusCode::kInvalidArgument);

  // A zero charge refunds as a no-op, even for an unknown session.
  BudgetReceipt zero;
  zero.session = "nobody";
  zero.charged = 0.0;
  EXPECT_TRUE(accountant.Refund(zero).ok());
}

TEST(BudgetAccountantTest, ReceiptRefundsAtMostOnce) {
  // Replaying a receipt (or a copy of it) must not mint budget.
  BudgetAccountant accountant(1.0);
  auto first = accountant.ChargeSequential("", 0.3);
  auto second = accountant.ChargeSequential("", 0.3);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->charge_id, second->charge_id);
  ASSERT_TRUE(accountant.Refund(*first).ok());
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.3);
  const BudgetReceipt replay = *first;  // copies refund no better
  EXPECT_EQ(accountant.Refund(replay).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.3);
  // A receipt forging a foreign charge_id with the wrong amount is also
  // rejected.
  BudgetReceipt forged = *second;
  forged.charged = 0.25;
  EXPECT_EQ(accountant.Refund(forged).code(),
            StatusCode::kInvalidArgument);
  // The untouched second receipt still refunds normally, once.
  EXPECT_TRUE(accountant.Refund(*second).ok());
  EXPECT_DOUBLE_EQ(accountant.Spent(""), 0.0);
}

TEST(BudgetAccountantTest, ListSessionsSnapshotsEveryLedger) {
  BudgetAccountant accountant(5.0);
  ASSERT_TRUE(accountant.OpenSession("alice", 2.0).ok());
  ASSERT_TRUE(accountant.ChargeSequential("alice", 0.5).ok());
  ASSERT_TRUE(accountant.ChargeSequential("", 1.0).ok());
  auto sessions = accountant.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
  // std::map order: "" sorts before "alice".
  EXPECT_EQ(sessions[0].name, "");
  EXPECT_DOUBLE_EQ(sessions[0].budget, 5.0);
  EXPECT_DOUBLE_EQ(sessions[0].spent, 1.0);
  EXPECT_DOUBLE_EQ(sessions[0].remaining, 4.0);
  EXPECT_EQ(sessions[1].name, "alice");
  EXPECT_DOUBLE_EQ(sessions[1].budget, 2.0);
  EXPECT_DOUBLE_EQ(sessions[1].spent, 0.5);
  EXPECT_DOUBLE_EQ(sessions[1].remaining, 1.5);
}

TEST(BudgetAccountantTest, ConcurrentChargesNeverOverspend) {
  BudgetAccountant accountant(1.0);
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&accountant]() {
      for (int i = 0; i < kChargesPerThread; ++i) {
        (void)accountant.ChargeSequential("", 0.01);
      }
    });
  }
  for (auto& t : threads) t.join();
  // 400 attempted charges of 0.01 against a budget of 1.0: exactly the
  // first 100 (in arrival order) may land.
  EXPECT_LE(accountant.Spent(""), 1.0 + 1e-9);
  EXPECT_NEAR(accountant.Spent(""), 1.0, 1e-9);
}

}  // namespace
}  // namespace blowfish
