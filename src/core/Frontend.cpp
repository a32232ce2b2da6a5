//===- core/Frontend.cpp - egglog language frontend ---------------------------===//
//
// Part of egglog-cpp. See Frontend.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/Frontend.h"

#include "core/Extract.h"
#include "core/Query.h"
#include "core/Snapshot.h"
#include "support/FailPoints.h"

#include <cassert>
#include <new>

using namespace egglog;

namespace {

bool isKeyword(const SExpr &Node) {
  return Node.isSymbol() && !Node.Text.empty() && Node.Text[0] == ':';
}

/// Scans trailing `:keyword value` pairs starting at \p From. Returns false
/// on a malformed tail.
bool scanKeywords(const SExpr &Form, size_t From,
                  std::unordered_map<std::string, const SExpr *> &Out) {
  for (size_t I = From; I < Form.size();) {
    if (!isKeyword(Form[I]) || I + 1 >= Form.size())
      return false;
    Out[Form[I].Text] = &Form[I + 1];
    I += 2;
  }
  return true;
}

} // namespace

bool Frontend::failKind(const SExpr &At, ErrKind Kind,
                        const std::string &Message) {
  if (!ErrorMsg.empty())
    return false;
  ErrorMsg = "line " + std::to_string(At.Line) + ": " + Message;
  LastError = EggError{Kind, Message, At.Line, At.Col};
  return false;
}

bool Frontend::fail(const SExpr &At, const std::string &Message) {
  // Most bare fail() sites are static errors (malformed forms, unknown
  // names, sort mismatches); Type renders as a plain "error" and exits 1.
  return failKind(At, ErrKind::Type, Message);
}

bool Frontend::failGraph(const SExpr &At) {
  ErrKind Kind = Graph.errorKind();
  return failKind(At, Kind == ErrKind::None ? ErrKind::Runtime : Kind,
                  Graph.errorMessage());
}

bool Frontend::execute(std::string_view Source) {
  ParseResult Parsed = parseSExprs(Source);
  if (!Parsed.Ok) {
    ErrorMsg = "line " + std::to_string(Parsed.ErrorLine) +
               ": parse error: " + Parsed.Error;
    LastError = EggError{ErrKind::Parse, Parsed.Error, Parsed.ErrorLine,
                         Parsed.ErrorCol};
    return false;
  }
  for (const SExpr &Form : Parsed.Forms)
    if (!executeForm(Form))
      return false;
  return true;
}

bool Frontend::executeForm(const SExpr &Form) {
  ErrorMsg.clear();
  LastError = EggError{};
  if (!Form.isList() || Form.size() == 0 || !Form[0].isSymbol())
    return fail(Form, "expected a command form");
  const std::string &Head = Form[0].Text;
  CurrentForm = &Form;

  // (push)/(pop) are barrier commands: popContext wholesale-replaces the
  // structures the transaction journals cover (poisoning them), and both
  // validate their arguments before touching anything, so they run outside
  // the per-command transaction.
  if (Head == "push" || Head == "pop") {
    bool Ok = Head == "push" ? execPush(Form) : execPop(Form);
    CurrentForm = nullptr;
    return Ok;
  }

  Graph.governor().arm();
  Graph.resetCheckpointBudget();
  EGraph::TxnMark Mark = Graph.txnBegin();
  Engine::Snapshot EngineMark = Eng.snapshot();
  size_t OutputsMark = Outputs.size();
  bool Ok = false;
  try {
    EGGLOG_FAILPOINT("frontend.command");
    Ok = dispatchCommand(Form);
  } catch (const InjectedFault &F) {
    failKind(Form, ErrKind::Runtime,
             std::string("injected fault at '") + F.site() + "'");
  } catch (const std::bad_alloc &) {
    failKind(Form, ErrKind::Limit, "out of memory");
  }
  CurrentForm = nullptr;
  if (Ok) {
    Graph.txnCommit();
    return true;
  }
  Graph.txnRollback(Mark);
  Eng.restore(EngineMark);
  Outputs.resize(OutputsMark);
  // The rollback may have removed rulesets the lint bookkeeping indexed.
  truncateLintState();
  return false;
}

bool Frontend::dispatchCommand(const SExpr &Form) {
  const std::string &Head = Form[0].Text;
  if (Head == "sort")
    return execSort(Form);
  if (Head == "datatype")
    return execDatatype(Form);
  if (Head == "function")
    return execFunction(Form);
  if (Head == "relation")
    return execRelation(Form);
  if (Head == "rule")
    return execRule(Form);
  if (Head == "rewrite")
    return execRewrite(Form, /*Bidirectional=*/false);
  if (Head == "birewrite")
    return execRewrite(Form, /*Bidirectional=*/true);
  if (Head == "define" || Head == "let")
    return execDefine(Form);
  if (Head == "ruleset")
    return execRuleset(Form);
  if (Head == "run")
    return execRun(Form);
  if (Head == "run-schedule")
    return execRunSchedule(Form);
  if (Head == "set-option")
    return execSetOption(Form);
  if (Head == "check")
    return execCheck(Form, /*ExpectFailure=*/false);
  if (Head == "check-fail")
    return execCheck(Form, /*ExpectFailure=*/true);
  if (Head == "extract")
    return execExtract(Form);
  if (Head == "save")
    return execSave(Form);
  if (Head == "load")
    return execLoad(Form);
  if (Head == "check-program")
    return execCheckProgram(Form);
  if (Head == "print-size") {
    if (Form.size() != 2 || !Form[1].isSymbol())
      return fail(Form, "usage: (print-size function)");
    FunctionId Func;
    if (!Graph.lookupFunctionName(Form[1].Text, Func))
      return fail(Form[1], "unknown function '" + Form[1].Text + "'");
    // Analysis mode validates the lookup but skips the output: sizes from
    // a non-executing walk would be misleading.
    if (AnalysisMode)
      return true;
    Outputs.push_back(Form[1].Text + ": " +
                      std::to_string(Graph.functionSize(Func)));
    return true;
  }
  return execTopLevelAction(Form);
}

//===----------------------------------------------------------------------===
// Declarations
//===----------------------------------------------------------------------===

bool Frontend::parseSortName(const SExpr &Node, SortId &Out) {
  if (!Node.isSymbol())
    return fail(Node, "expected a sort name");
  if (!Graph.sorts().lookup(Node.Text, Out))
    return fail(Node, "unknown sort '" + Node.Text + "'");
  return true;
}

bool Frontend::execSort(const SExpr &Form) {
  if (Form.size() < 2 || !Form[1].isSymbol())
    return fail(Form, "usage: (sort Name) or (sort Name (Set Elem))");
  SortId Existing;
  if (Graph.sorts().lookup(Form[1].Text, Existing))
    return fail(Form, "sort '" + Form[1].Text + "' already declared");
  if (Form.size() == 2) {
    Graph.declareSort(Form[1].Text);
    return true;
  }
  const SExpr &Ctor = Form[2];
  if (Form.size() == 3 && Ctor.isCall("Set") && Ctor.size() == 2) {
    SortId Element;
    if (!parseSortName(Ctor[1], Element))
      return false;
    Graph.declareSetSort(Form[1].Text, Element);
    return true;
  }
  return fail(Form, "unsupported sort constructor");
}

bool Frontend::execDatatype(const SExpr &Form) {
  if (Form.size() < 2 || !Form[1].isSymbol())
    return fail(Form, "usage: (datatype Name ctors...)");
  SortId Existing;
  if (Graph.sorts().lookup(Form[1].Text, Existing))
    return fail(Form, "sort '" + Form[1].Text + "' already declared");
  SortId Self = Graph.declareSort(Form[1].Text);
  for (size_t I = 2; I < Form.size(); ++I) {
    const SExpr &Ctor = Form[I];
    if (!Ctor.isList() || Ctor.size() == 0 || !Ctor[0].isSymbol())
      return fail(Ctor, "expected a constructor (Name sorts...)");
    FunctionDecl Decl;
    Decl.Name = Ctor[0].Text;
    Decl.OutSort = Self;
    Decl.Line = Ctor.Line;
    Decl.Col = Ctor.Col;
    Decl.Unit = UnitLabel;
    size_t ArgEnd = Ctor.size();
    // Allow a trailing :cost annotation.
    if (Ctor.size() >= 3 && isKeyword(Ctor[Ctor.size() - 2]) &&
        Ctor[Ctor.size() - 2].Text == ":cost" &&
        Ctor[Ctor.size() - 1].isInteger()) {
      // Negative costs would break the monotone extraction fixpoint (and
      // saturatingAdd's overflow guard); reject them at declaration.
      if (Ctor[Ctor.size() - 1].IntValue < 0)
        return fail(Ctor[Ctor.size() - 1], ":cost must be non-negative");
      Decl.Cost = Ctor[Ctor.size() - 1].IntValue;
      ArgEnd -= 2;
    }
    for (size_t J = 1; J < ArgEnd; ++J) {
      SortId Arg;
      if (!parseSortName(Ctor[J], Arg))
        return false;
      Decl.ArgSorts.push_back(Arg);
    }
    FunctionId Ignored;
    if (Graph.lookupFunctionName(Decl.Name, Ignored))
      return fail(Ctor, "function '" + Decl.Name + "' already declared");
    Graph.declareFunction(std::move(Decl));
  }
  return true;
}

bool Frontend::execFunction(const SExpr &Form) {
  if (Form.size() < 4 || !Form[1].isSymbol() || !Form[2].isList())
    return fail(Form, "usage: (function Name (ArgSorts...) OutSort ...)");
  FunctionDecl Decl;
  Decl.Name = Form[1].Text;
  Decl.Line = Form.Line;
  Decl.Col = Form.Col;
  Decl.Unit = UnitLabel;
  FunctionId Ignored;
  if (Graph.lookupFunctionName(Decl.Name, Ignored))
    return fail(Form, "function '" + Decl.Name + "' already declared");
  for (const SExpr &Arg : Form[2].Elements) {
    SortId Sort;
    if (!parseSortName(Arg, Sort))
      return false;
    Decl.ArgSorts.push_back(Sort);
  }
  if (!parseSortName(Form[3], Decl.OutSort))
    return false;

  std::unordered_map<std::string, const SExpr *> Keywords;
  if (!scanKeywords(Form, 4, Keywords))
    return fail(Form, "malformed keyword arguments");
  if (auto It = Keywords.find(":cost"); It != Keywords.end()) {
    if (!It->second->isInteger())
      return fail(*It->second, ":cost expects an integer");
    if (It->second->IntValue < 0)
      return fail(*It->second, ":cost must be non-negative");
    Decl.Cost = It->second->IntValue;
  }
  if (auto It = Keywords.find(":merge"); It != Keywords.end()) {
    RuleCtx Ctx;
    uint32_t OldSlot = Ctx.freshVar(Decl.OutSort);
    uint32_t NewSlot = Ctx.freshVar(Decl.OutSort);
    Ctx.Names["old"] = Binding{VarOrConst::makeVar(OldSlot), Decl.OutSort};
    Ctx.Names["new"] = Binding{VarOrConst::makeVar(NewSlot), Decl.OutSort};
    TypedExpr Merge;
    if (!typecheckExpr(Ctx, *It->second, Decl.OutSort, Merge))
      return false;
    Decl.MergeExpr = std::move(Merge);
  }
  if (auto It = Keywords.find(":default"); It != Keywords.end()) {
    RuleCtx Ctx;
    TypedExpr Default;
    if (!typecheckExpr(Ctx, *It->second, Decl.OutSort, Default))
      return false;
    Decl.DefaultExpr = std::move(Default);
  }
  Graph.declareFunction(std::move(Decl));
  return true;
}

bool Frontend::execRelation(const SExpr &Form) {
  if (Form.size() != 3 || !Form[1].isSymbol() || !Form[2].isList())
    return fail(Form, "usage: (relation Name (ArgSorts...))");
  FunctionDecl Decl;
  Decl.Name = Form[1].Text;
  Decl.Line = Form.Line;
  Decl.Col = Form.Col;
  Decl.Unit = UnitLabel;
  FunctionId Ignored;
  if (Graph.lookupFunctionName(Decl.Name, Ignored))
    return fail(Form, "function '" + Decl.Name + "' already declared");
  for (const SExpr &Arg : Form[2].Elements) {
    SortId Sort;
    if (!parseSortName(Arg, Sort))
      return false;
    Decl.ArgSorts.push_back(Sort);
  }
  Decl.OutSort = SortTable::UnitSort;
  Graph.declareFunction(std::move(Decl));
  return true;
}

//===----------------------------------------------------------------------===
// Rules and rewrites
//===----------------------------------------------------------------------===

bool Frontend::execRule(const SExpr &Form) {
  if (Form.size() < 3 || !Form[1].isList() || !Form[2].isList())
    return fail(Form, "usage: (rule (facts...) (actions...))");
  std::unordered_map<std::string, const SExpr *> Keywords;
  if (!scanKeywords(Form, 3, Keywords))
    return fail(Form, "malformed keyword arguments");

  Rule R;
  if (auto It = Keywords.find(":name"); It != Keywords.end())
    R.Name = It->second->Text;
  if (auto It = Keywords.find(":ruleset"); It != Keywords.end())
    if (!parseRulesetName(*It->second, R.Ruleset))
      return false;

  RuleCtx Ctx;
  for (const SExpr &Fact : Form[1].Elements)
    if (!flattenQueryFact(Ctx, Fact))
      return false;
  Ctx.NumSlots = Ctx.Q.NumVars;
  for (const SExpr &Act : Form[2].Elements)
    if (!typecheckAction(Ctx, Act, R.Actions))
      return false;
  R.Body = std::move(Ctx.Q);
  R.NumSlots = Ctx.NumSlots;
  R.Line = Form.Line;
  R.Col = Form.Col;
  R.Unit = UnitLabel;
  R.VarNames = std::move(Ctx.SlotNames);
  Eng.addRule(std::move(R));
  return true;
}

bool Frontend::makeRewriteRule(const SExpr &At, const SExpr &Lhs,
                               const SExpr &Rhs, const SExpr *WhenList,
                               const std::string &Name, RulesetId Ruleset) {
  RuleCtx Ctx;
  Binding Root;
  if (!flattenPattern(Ctx, Lhs, InvalidSort, Root))
    return false;
  if (!Root.Term.IsVar || !Graph.sorts().isIdSort(Root.Sort))
    return fail(Lhs, "rewrite left-hand side must be a term of a user sort");
  if (WhenList) {
    if (!WhenList->isList())
      return fail(*WhenList, ":when expects a list of conditions");
    for (const SExpr &Cond : WhenList->Elements)
      if (!flattenQueryFact(Ctx, Cond))
        return false;
  }
  Ctx.NumSlots = Ctx.Q.NumVars;

  Rule R;
  R.Name = Name;
  R.Ruleset = Ruleset;
  TypedExpr RhsExpr;
  if (!typecheckExpr(Ctx, Rhs, Root.Sort, RhsExpr))
    return false;
  Action Act;
  Act.ActKind = Action::Kind::Union;
  Act.Expr = TypedExpr::makeVar(Root.Term.Var, Root.Sort);
  Act.Expr2 = std::move(RhsExpr);
  R.Actions.push_back(std::move(Act));
  R.Body = std::move(Ctx.Q);
  R.NumSlots = Ctx.NumSlots;
  R.Line = At.Line;
  R.Col = At.Col;
  R.Unit = UnitLabel;
  R.VarNames = std::move(Ctx.SlotNames);
  Eng.addRule(std::move(R));
  return true;
}

bool Frontend::execRewrite(const SExpr &Form, bool Bidirectional) {
  if (Form.size() < 3)
    return fail(Form, "usage: (rewrite lhs rhs [:when (conds...)])");
  std::unordered_map<std::string, const SExpr *> Keywords;
  if (!scanKeywords(Form, 3, Keywords))
    return fail(Form, "malformed keyword arguments");
  const SExpr *WhenList = nullptr;
  if (auto It = Keywords.find(":when"); It != Keywords.end())
    WhenList = It->second;
  std::string Name;
  if (auto It = Keywords.find(":name"); It != Keywords.end())
    Name = It->second->Text;
  RulesetId Ruleset = 0;
  if (auto It = Keywords.find(":ruleset"); It != Keywords.end())
    if (!parseRulesetName(*It->second, Ruleset))
      return false;
  if (!makeRewriteRule(Form, Form[1], Form[2], WhenList, Name, Ruleset))
    return false;
  if (Bidirectional &&
      !makeRewriteRule(Form, Form[2], Form[1], WhenList, Name, Ruleset))
    return false;
  return true;
}

//===----------------------------------------------------------------------===
// Top-level commands
//===----------------------------------------------------------------------===

bool Frontend::execDefine(const SExpr &Form) {
  if (Form.size() < 3 || !Form[1].isSymbol())
    return fail(Form, "usage: (define name expr)");
  FunctionId Ignored;
  if (Graph.lookupFunctionName(Form[1].Text, Ignored))
    return fail(Form, "'" + Form[1].Text + "' already declared");
  std::unordered_map<std::string, const SExpr *> Keywords;
  if (!scanKeywords(Form, 3, Keywords))
    return fail(Form, "malformed keyword arguments");

  RuleCtx Ctx;
  TypedExpr Expr;
  if (!typecheckExpr(Ctx, Form[2], InvalidSort, Expr))
    return false;
  Value Result;
  std::vector<Value> Env;
  if (!Graph.evalExpr(Expr, Env, Result))
    return fail(Form, "failed to evaluate definition of '" + Form[1].Text +
                          "': " + Graph.errorMessage());

  FunctionDecl Decl;
  Decl.Name = Form[1].Text;
  Decl.OutSort = Expr.Type;
  Decl.Line = Form.Line;
  Decl.Col = Form.Col;
  Decl.Unit = UnitLabel;
  // Defined names are aliases; give them a prohibitive extraction cost so
  // extract prefers real terms (matching egglog's define).
  Decl.Cost = 1000000000;
  if (auto It = Keywords.find(":cost"); It != Keywords.end()) {
    if (!It->second->isInteger())
      return fail(*It->second, ":cost expects an integer");
    if (It->second->IntValue < 0)
      return fail(*It->second, ":cost must be non-negative");
    Decl.Cost = It->second->IntValue;
  }
  FunctionId Func = Graph.declareFunction(std::move(Decl));
  Value NoArgs;
  if (!Graph.setValue(Func, &NoArgs, Result))
    return failGraph(Form);
  return true;
}

bool Frontend::parseRulesetName(const SExpr &Node, RulesetId &Out) {
  if (!Node.isSymbol())
    return fail(Node, "expected a ruleset name");
  if (!Eng.lookupRuleset(Node.Text, Out))
    return fail(Node, "unknown ruleset '" + Node.Text + "'");
  return true;
}

bool Frontend::execRuleset(const SExpr &Form) {
  if (Form.size() != 2 || !Form[1].isSymbol())
    return fail(Form, "usage: (ruleset name)");
  RulesetId Existing;
  if (Eng.lookupRuleset(Form[1].Text, Existing))
    return fail(Form, "ruleset '" + Form[1].Text + "' already declared");
  Eng.declareRuleset(Form[1].Text);
  Lint.RulesetDecls.resize(Eng.numRulesets());
  Lint.RulesetDecls.back() = SourceSpan{UnitLabel, Form.Line, Form.Col};
  return true;
}

void Frontend::recordRunTarget(RulesetId Ruleset, bool Guarded) {
  Lint.SawAnyRun = true;
  if (Lint.RulesetRan.size() <= Ruleset) {
    Lint.RulesetRan.resize(Ruleset + 1, 0);
    Lint.RulesetRanUnguarded.resize(Ruleset + 1, 0);
  }
  Lint.RulesetRan[Ruleset] = 1;
  if (!Guarded)
    Lint.RulesetRanUnguarded[Ruleset] = 1;
}

void Frontend::recordScheduleTargets(const Schedule &S) {
  if (S.ScheduleKind == Schedule::Kind::Run)
    recordRunTarget(S.Ruleset, /*Guarded=*/true);
  for (const Schedule &Child : S.Children)
    recordScheduleTargets(Child);
}

void Frontend::truncateLintState() {
  size_t N = Eng.numRulesets();
  if (Lint.RulesetDecls.size() > N)
    Lint.RulesetDecls.resize(N);
  if (Lint.RulesetRan.size() > N) {
    Lint.RulesetRan.resize(N);
    Lint.RulesetRanUnguarded.resize(N);
  }
}

bool Frontend::parseRunLeaf(const SExpr &Form, Schedule &Out,
                            bool &HasCount) {
  // (run), (run n), (run ruleset), (run ruleset n), each with an optional
  // trailing :until (facts...).
  Out = Schedule();
  HasCount = false;
  size_t Arg = 1;
  if (Arg < Form.size() && Form[Arg].isSymbol() && !isKeyword(Form[Arg])) {
    if (!parseRulesetName(Form[Arg], Out.Ruleset))
      return false;
    ++Arg;
  }
  if (Arg < Form.size() && !isKeyword(Form[Arg])) {
    if (!Form[Arg].isInteger() || Form[Arg].IntValue < 0)
      return fail(Form, "usage: (run [ruleset] [n] [:until (facts...)])");
    Out.Times = static_cast<unsigned>(Form[Arg].IntValue);
    HasCount = true;
    ++Arg;
  }
  std::unordered_map<std::string, const SExpr *> Keywords;
  if (!scanKeywords(Form, Arg, Keywords))
    return fail(Form, "malformed keyword arguments");
  if (auto It = Keywords.find(":until"); It != Keywords.end()) {
    if (!It->second->isList())
      return fail(*It->second, ":until expects a list of facts");
    for (const SExpr &Fact : It->second->Elements) {
      CheckFact Checked;
      if (!typecheckCheckFact(Fact, Checked))
        return false;
      Out.Until.push_back(std::move(Checked));
    }
  }
  return true;
}

bool Frontend::execRun(const SExpr &Form) {
  Schedule Leaf;
  bool HasCount;
  if (!parseRunLeaf(Form, Leaf, HasCount))
    return false;
  // An uncounted, goal-less (run ...) is run-to-saturation intent: the
  // shape the non-termination lint treats as unguarded.
  recordRunTarget(Leaf.Ruleset, HasCount || !Leaf.Until.empty());
  if (AnalysisMode)
    return true;
  // Bare count: iterate to saturation with a generous safety cap.
  if (!HasCount)
    Leaf.Times = 1000;

  if (Leaf.Ruleset == 0 && Leaf.Until.empty()) {
    // The classic single-ruleset path; kept separate from the schedule
    // interpreter so the engine's own saturation detection reports
    // through LastRun exactly as before.
    RunOptions Opts = Options;
    Opts.Ruleset = 0;
    Opts.Iterations = Leaf.Times;
    LastRun = Eng.run(Opts);
  } else {
    LastRun = Eng.runSchedule(Leaf, Options);
  }
  accumulatePhaseTotals();
  if (Graph.failed())
    return failGraph(Form);
  return true;
}

bool Frontend::execSetOption(const SExpr &Form) {
  if (Form.size() != 3 || !Form[1].isSymbol() || !isKeyword(Form[1]))
    return fail(Form, "usage: (set-option :option value)");
  const std::string &Option = Form[1].Text;
  if (Option == ":timeout") {
    // Per-command wall-clock budget in seconds (integer or float); 0
    // disables. Unlike the legacy iteration-granular TimeoutSeconds run
    // option, a governor timeout is a hard stop: the command fails with a
    // limit error and rolls back.
    double Seconds = 0;
    if (Form[2].isInteger() && Form[2].IntValue >= 0)
      Seconds = static_cast<double>(Form[2].IntValue);
    else if (Form[2].isFloat() && Form[2].FloatValue >= 0)
      Seconds = Form[2].FloatValue;
    else
      return fail(Form[2], ":timeout expects a non-negative number");
    Graph.governor().setTimeout(Seconds);
    return true;
  }
  if (Option == ":max-nodes") {
    if (!Form[2].isInteger() || Form[2].IntValue < 0)
      return fail(Form[2], ":max-nodes expects a non-negative integer");
    Graph.governor().setMaxLive(static_cast<size_t>(Form[2].IntValue));
    return true;
  }
  if (Option == ":max-memory-mb") {
    if (!Form[2].isInteger() || Form[2].IntValue < 0)
      return fail(Form[2], ":max-memory-mb expects a non-negative integer");
    Graph.governor().setMaxBytes(static_cast<size_t>(Form[2].IntValue) << 20);
    return true;
  }
  if (Option == ":threads") {
    if (!Form[2].isInteger() || Form[2].IntValue < 1)
      return fail(Form[2], ":threads expects a positive integer");
    // Bound before narrowing: setThreads clamps far below this anyway,
    // and a direct cast would wrap huge values (2^32 -> 0).
    Eng.setThreads(static_cast<unsigned>(
        std::min<int64_t>(Form[2].IntValue, 1 << 16)));
    return true;
  }
  if (Option == ":node-limit") {
    if (!Form[2].isInteger() || Form[2].IntValue < 0)
      return fail(Form[2], ":node-limit expects a non-negative integer");
    Options.NodeLimit = static_cast<size_t>(Form[2].IntValue);
    return true;
  }
  return fail(Form, "unknown option '" + Option + "'");
}

void Frontend::accumulatePhaseTotals() {
  for (const IterationStats &Stats : LastRun.Iterations) {
    ++Totals.Iterations;
    Totals.Matches += Stats.Matches;
    Totals.WarmSeconds += Stats.WarmSeconds;
    Totals.SearchSeconds += Stats.SearchSeconds;
    Totals.ApplySeconds += Stats.ApplySeconds;
    Totals.RebuildSeconds += Stats.RebuildSeconds;
  }
}

bool Frontend::parseSchedule(const SExpr &Node, Schedule &Out) {
  // A bare ruleset name runs that ruleset once.
  if (Node.isSymbol()) {
    Out = Schedule::makeRun(0, 1);
    return parseRulesetName(Node, Out.Ruleset);
  }
  if (!Node.isList() || Node.size() == 0 || !Node[0].isSymbol())
    return fail(Node, "expected a schedule");
  const std::string &Head = Node[0].Text;

  if (Head == "run") {
    bool HasCount;
    if (!parseRunLeaf(Node, Out, HasCount))
      return false;
    if (!HasCount)
      Out.Times = 1;
    return true;
  }

  if (Head == "saturate" || Head == "seq" || Head == "repeat") {
    size_t First = 1;
    unsigned Times = 1;
    Schedule::Kind Kind = Schedule::Kind::Seq;
    if (Head == "saturate") {
      Kind = Schedule::Kind::Saturate;
    } else if (Head == "repeat") {
      Kind = Schedule::Kind::Repeat;
      if (Node.size() < 2 || !Node[1].isInteger() || Node[1].IntValue < 0)
        return fail(Node, "usage: (repeat n schedules...)");
      Times = static_cast<unsigned>(Node[1].IntValue);
      First = 2;
    }
    std::vector<Schedule> Children;
    for (size_t I = First; I < Node.size(); ++I) {
      Schedule Child;
      if (!parseSchedule(Node[I], Child))
        return false;
      Children.push_back(std::move(Child));
    }
    if (Children.empty())
      return fail(Node, "(" + Head + ") needs at least one sub-schedule");
    Out = Schedule::makeCombinator(Kind, std::move(Children), Times);
    return true;
  }

  return fail(Node, "unknown schedule form '" + Head + "'");
}

bool Frontend::execRunSchedule(const SExpr &Form) {
  if (Form.size() < 2)
    return fail(Form, "usage: (run-schedule schedules...)");
  std::vector<Schedule> Children;
  for (size_t I = 1; I < Form.size(); ++I) {
    Schedule Child;
    if (!parseSchedule(Form[I], Child))
      return false;
    Children.push_back(std::move(Child));
  }
  Schedule Root =
      Schedule::makeCombinator(Schedule::Kind::Seq, std::move(Children));
  // Schedule leaves are always bounded (or saturate-wrapped), so every
  // target counts as guarded for the non-termination lint.
  recordScheduleTargets(Root);
  if (AnalysisMode)
    return true;
  LastRun = Eng.runSchedule(Root, Options);
  accumulatePhaseTotals();
  if (Graph.failed())
    return failGraph(Form);
  return true;
}

void Frontend::pushContext() {
  Contexts.push_back(SavedContext{Graph.snapshot(), Eng.snapshot()});
}

bool Frontend::popContext() {
  if (Contexts.empty())
    return false;
  Graph.restore(Contexts.back().GraphState);
  Eng.restore(Contexts.back().EngineState);
  Contexts.pop_back();
  truncateLintState();
  return true;
}

bool Frontend::execPush(const SExpr &Form) {
  int64_t Count = 1;
  if (Form.size() >= 2) {
    if (!Form[1].isInteger() || Form[1].IntValue < 1)
      return fail(Form, "usage: (push) or (push n)");
    Count = Form[1].IntValue;
  }
  for (int64_t I = 0; I < Count; ++I)
    pushContext();
  return true;
}

bool Frontend::execPop(const SExpr &Form) {
  int64_t Count = 1;
  if (Form.size() >= 2) {
    if (!Form[1].isInteger() || Form[1].IntValue < 1)
      return fail(Form, "usage: (pop) or (pop n)");
    Count = Form[1].IntValue;
  }
  // Check up front so a failing (pop n) is atomic: it must not consume
  // the contexts that do exist before reporting the error.
  if (static_cast<size_t>(Count) > Contexts.size())
    return failKind(Form, ErrKind::Runtime, "(pop) without a matching (push)");
  for (int64_t I = 0; I < Count; ++I)
    popContext();
  return true;
}

bool Frontend::execCheck(const SExpr &Form, bool ExpectFailure) {
  if (Form.size() < 2)
    return fail(Form, "usage: (check fact...)");
  // Analysis mode typechecks the facts without consulting the database
  // (which a non-executing walk never populated by running rules).
  if (AnalysisMode) {
    for (size_t I = 1; I < Form.size(); ++I) {
      CheckFact Fact;
      if (!typecheckCheckFact(Form[I], Fact))
        return false;
    }
    return true;
  }
  if (!ensureRebuilt())
    return false;
  for (size_t I = 1; I < Form.size(); ++I) {
    CheckFact Fact;
    if (!typecheckCheckFact(Form[I], Fact))
      return false;
    bool Holds = Graph.checkFact(Fact);
    if (Graph.failed())
      return failGraph(Form[I]);
    if (Holds == ExpectFailure)
      return failKind(Form[I], ErrKind::Runtime,
                      ExpectFailure ? "check-fail succeeded unexpectedly: " +
                                          Form[I].toString()
                                    : "check failed: " + Form[I].toString());
  }
  return true;
}

bool Frontend::execExtract(const SExpr &Form) {
  if (Form.size() != 2 && Form.size() != 3)
    return fail(Form, "usage: (extract expr [n])");
  if (AnalysisMode) {
    RuleCtx Ctx;
    TypedExpr Expr;
    return typecheckExpr(Ctx, Form[1], InvalidSort, Expr);
  }
  if (!ensureRebuilt())
    return false;
  RuleCtx Ctx;
  TypedExpr Expr;
  if (!typecheckExpr(Ctx, Form[1], InvalidSort, Expr))
    return false;
  Value Result;
  std::vector<Value> Env;
  if (!Graph.evalExpr(Expr, Env, Result, /*CreateTerms=*/false))
    return fail(Form, "extract: expression is not in the database");
  // (extract expr n): up to n distinct equivalent terms, cheapest first,
  // one output line each.
  if (Form.size() == 3) {
    if (!Form[2].isInteger() || Form[2].IntValue < 1)
      return fail(Form[2], "(extract expr n) expects a positive count");
    std::vector<ExtractedTerm> Variants = extractVariants(
        Graph, Result, static_cast<size_t>(Form[2].IntValue));
    if (Variants.empty())
      return fail(Form, "extract: no term represents this value");
    for (const ExtractedTerm &Variant : Variants)
      Outputs.push_back(Variant.Text);
    return true;
  }
  std::optional<ExtractedTerm> Term = extractTerm(Graph, Result);
  if (!Term)
    return fail(Form, "extract: no term represents this value");
  Outputs.push_back(Term->Text);
  return true;
}

bool Frontend::execSave(const SExpr &Form) {
  if (Form.size() != 2 || !Form[1].isString())
    return fail(Form, "usage: (save <file>) with a string path");
  if (AnalysisMode)
    return true;
  EggError Err;
  if (!saveSnapshot(Graph, Form[1].Text, Err))
    return failKind(Form, Err.Kind, Err.Message);
  return true;
}

bool Frontend::execLoad(const SExpr &Form) {
  if (Form.size() != 2 || !Form[1].isString())
    return fail(Form, "usage: (load <file>) with a string path");
  if (AnalysisMode)
    return true;
  // A load wholesale-replaces the tables that any open (push) context's
  // saved snapshot still describes, so it is only legal at depth zero.
  if (!Contexts.empty())
    return failKind(Form, ErrKind::IO,
                    "(load) inside a (push) context is not supported");
  EggError Err;
  if (!loadSnapshot(Graph, Form[1].Text, Err))
    return failKind(Form, Err.Kind, Err.Message);
  // The engine's saturation-hash caches are keyed by monotone mutation
  // counters that a wholesale content swap can replay onto different
  // content; drop them explicitly.
  Eng.noteExternalMutation();
  return true;
}

RuleGraph Frontend::ruleGraph() const { return buildRuleGraph(Eng, Graph); }

std::vector<LintDiagnostic> Frontend::lintProgram() const {
  RuleGraph RG = ruleGraph();
  return runLints(Eng, Graph, RG, Lint);
}

bool Frontend::execCheckProgram(const SExpr &Form) {
  if (Form.size() != 1)
    return fail(Form, "usage: (check-program)");
  for (const LintDiagnostic &D : lintProgram())
    Outputs.push_back("line " + std::to_string(D.Line) +
                      ": warning: " + D.Message + " [" + D.Check + "]");
  return true;
}

bool Frontend::execTopLevelAction(const SExpr &Form) {
  RuleCtx Ctx;
  std::vector<Action> Actions;
  if (!typecheckAction(Ctx, Form, Actions))
    return false;
  std::vector<Value> Env(Ctx.NumSlots);
  if (!Graph.runActions(Actions, Env)) {
    if (Graph.failed())
      return failGraph(Form);
    return failKind(Form, ErrKind::Runtime,
                    "action failed: " + Form.toString());
  }
  return true;
}

bool Frontend::ensureRebuilt() {
  if (Graph.needsRebuild())
    Graph.rebuild();
  if (Graph.failed()) {
    if (ErrorMsg.empty()) {
      // Report at the span of the command that forced the rebuild, so the
      // error doesn't point at "line 0".
      unsigned Line = CurrentForm ? CurrentForm->Line : 0;
      unsigned Col = CurrentForm ? CurrentForm->Col : 0;
      ErrorMsg = "line " + std::to_string(Line) + ": " + Graph.errorMessage();
      ErrKind Kind = Graph.errorKind();
      LastError = EggError{Kind == ErrKind::None ? ErrKind::Runtime : Kind,
                           Graph.errorMessage(), Line, Col};
    }
    return false;
  }
  return true;
}

bool Frontend::evalGround(std::string_view ExprSource, Value &Out) {
  ParseResult Parsed = parseSExprs(ExprSource);
  if (!Parsed.Ok || Parsed.Forms.size() != 1)
    return false;
  if (!ensureRebuilt())
    return false;
  RuleCtx Ctx;
  TypedExpr Expr;
  if (!typecheckExpr(Ctx, Parsed.Forms[0], InvalidSort, Expr)) {
    ErrorMsg.clear();
    return false;
  }
  std::vector<Value> Env;
  return Graph.evalExpr(Expr, Env, Out, /*CreateTerms=*/false);
}

//===----------------------------------------------------------------------===
// Typechecking: patterns (query side)
//===----------------------------------------------------------------------===

Value Frontend::literalFor(const SExpr &Node, SortId Expected) {
  if (Node.isInteger()) {
    if (Expected == SortTable::F64Sort)
      return Graph.mkF64(static_cast<double>(Node.IntValue));
    if (Expected == SortTable::RationalSort)
      return Graph.mkRational(Rational(Node.IntValue));
    return Graph.mkI64(Node.IntValue);
  }
  if (Node.isFloat())
    return Graph.mkF64(Node.FloatValue);
  assert(Node.isString() && "literalFor on a non-literal");
  return Graph.mkString(Node.Text);
}

bool Frontend::resolvePrim(const SExpr &At, const std::string &Name,
                           const std::vector<SortId> &ArgSorts,
                           uint32_t &PrimId) {
  if (Graph.primitives().resolve(Name, ArgSorts, PrimId))
    return true;
  // Lazily instantiate the polymorphic comparisons for any sort.
  if ((Name == "!=" || Name == "==") && ArgSorts.size() == 2 &&
      ArgSorts[0] == ArgSorts[1]) {
    bool Negated = Name == "!=";
    PrimId = Graph.primitives().add(Primitive{
        Name,
        ArgSorts,
        SortTable::BoolSort,
        [Negated](EGraph &G, const Value *Args, Value &Out) {
          bool Equal = G.canonicalize(Args[0]) == G.canonicalize(Args[1]);
          Out = G.mkBool(Negated ? !Equal : Equal);
          return true;
        }});
    return true;
  }
  std::string Sorts;
  for (SortId S : ArgSorts)
    Sorts += " " + Graph.sorts().name(S);
  return fail(At, "no primitive '" + Name + "' for argument sorts:" + Sorts);
}

bool Frontend::flattenPattern(RuleCtx &Ctx, const SExpr &Pattern,
                              SortId Expected, Binding &Out) {
  // Symbols: booleans, bound names, nullary functions, or fresh variables.
  if (Pattern.isSymbol()) {
    const std::string &Name = Pattern.Text;
    if (Name == "true" || Name == "false") {
      Out = Binding{VarOrConst::makeConst(Graph.mkBool(Name == "true")),
                    SortTable::BoolSort};
    } else if (auto It = Ctx.Names.find(Name); It != Ctx.Names.end()) {
      Out = It->second;
    } else {
      FunctionId Func;
      if (Graph.lookupFunctionName(Name, Func)) {
        const FunctionInfo &Info = Graph.function(Func);
        if (Info.numKeys() != 0)
          return fail(Pattern, "function '" + Name +
                                   "' used as a variable but takes arguments");
        uint32_t Slot = Ctx.freshVar(Info.Decl.OutSort);
        QueryAtom Atom;
        Atom.Func = Func;
        Atom.Terms.push_back(VarOrConst::makeVar(Slot));
        Ctx.Q.Atoms.push_back(std::move(Atom));
        Out = Binding{VarOrConst::makeVar(Slot), Info.Decl.OutSort};
      } else {
        if (Expected == InvalidSort)
          return fail(Pattern,
                      "cannot infer the sort of variable '" + Name + "'");
        uint32_t Slot = Ctx.freshVar(Expected);
        Out = Binding{VarOrConst::makeVar(Slot), Expected};
        Ctx.Names[Name] = Out;
        Ctx.nameSlot(Slot, Name);
      }
    }
  } else if (Pattern.isInteger() || Pattern.isFloat() || Pattern.isString()) {
    Value Lit = literalFor(Pattern, Expected);
    Out = Binding{VarOrConst::makeConst(Lit), Lit.Sort};
  } else if (Pattern.isList() && Pattern.size() == 0) {
    Out = Binding{VarOrConst::makeConst(Graph.mkUnit()), SortTable::UnitSort};
  } else {
    // Call patterns: declared functions become atoms, primitives become
    // computations.
    if (!Pattern[0].isSymbol())
      return fail(Pattern, "expected a pattern");
    const std::string &Head = Pattern[0].Text;
    FunctionId Func;
    if (Graph.lookupFunctionName(Head, Func)) {
      const FunctionInfo &Info = Graph.function(Func);
      if (Pattern.size() - 1 != Info.numKeys())
        return fail(Pattern, "function '" + Head + "' expects " +
                                 std::to_string(Info.numKeys()) +
                                 " arguments");
      QueryAtom Atom;
      Atom.Func = Func;
      for (unsigned I = 0; I < Info.numKeys(); ++I) {
        Binding Arg;
        if (!flattenPattern(Ctx, Pattern[I + 1], Info.Decl.ArgSorts[I], Arg))
          return false;
        if (Arg.Sort != Info.Decl.ArgSorts[I])
          return fail(Pattern[I + 1], "argument sort mismatch in call to '" +
                                          Head + "'");
        Atom.Terms.push_back(Arg.Term);
      }
      uint32_t Slot = Ctx.freshVar(Info.Decl.OutSort);
      Atom.Terms.push_back(VarOrConst::makeVar(Slot));
      Ctx.Q.Atoms.push_back(std::move(Atom));
      Out = Binding{VarOrConst::makeVar(Slot), Info.Decl.OutSort};
    } else if (Graph.primitives().knownName(Head) || Head == "!=" ||
               Head == "==") {
      PrimComputation Prim;
      std::vector<SortId> ArgSorts;
      for (size_t I = 1; I < Pattern.size(); ++I) {
        Binding Arg;
        if (!flattenPattern(Ctx, Pattern[I], InvalidSort, Arg))
          return false;
        Prim.Args.push_back(Arg.Term);
        ArgSorts.push_back(Arg.Sort);
      }
      if (!resolvePrim(Pattern, Head, ArgSorts, Prim.Prim))
        return false;
      SortId OutSort = Graph.primitives().get(Prim.Prim).OutSort;
      uint32_t Slot = Ctx.freshVar(OutSort);
      Prim.Out = VarOrConst::makeVar(Slot);
      Ctx.Q.Prims.push_back(std::move(Prim));
      Out = Binding{VarOrConst::makeVar(Slot), OutSort};
    } else {
      return fail(Pattern, "unknown function or primitive '" + Head + "'");
    }
  }
  if (Expected != InvalidSort && Out.Sort != Expected)
    return fail(Pattern, "expected sort '" + Graph.sorts().name(Expected) +
                             "' but pattern has sort '" +
                             Graph.sorts().name(Out.Sort) + "'");
  return true;
}

bool Frontend::flattenQueryFact(RuleCtx &Ctx, const SExpr &Fact) {
  if (!Fact.isList() || Fact.size() == 0 || !Fact[0].isSymbol())
    return fail(Fact, "expected a query fact");
  const std::string &Head = Fact[0].Text;

  if (Head == "=") {
    if (Fact.size() != 3)
      return fail(Fact, "(=) expects two arguments");
    const SExpr &A = Fact[1], &B = Fact[2];
    // Prefer binding a fresh name to the other side's value.
    auto IsFreshName = [&](const SExpr &Node) {
      if (!Node.isSymbol() || Node.Text == "true" || Node.Text == "false")
        return false;
      FunctionId Ignored;
      return Ctx.Names.find(Node.Text) == Ctx.Names.end() &&
             !Graph.lookupFunctionName(Node.Text, Ignored);
    };
    if (IsFreshName(A) && !IsFreshName(B)) {
      Binding Rhs;
      if (!flattenPattern(Ctx, B, InvalidSort, Rhs))
        return false;
      Ctx.Names[A.Text] = Rhs;
      if (Rhs.Term.IsVar)
        Ctx.nameSlot(Rhs.Term.Var, A.Text);
      return true;
    }
    if (IsFreshName(B) && !IsFreshName(A)) {
      Binding Lhs;
      if (!flattenPattern(Ctx, A, InvalidSort, Lhs))
        return false;
      Ctx.Names[B.Text] = Lhs;
      if (Lhs.Term.IsVar)
        Ctx.nameSlot(Lhs.Term.Var, B.Text);
      return true;
    }
    // Both sides are patterns (or both fresh names, which we reject).
    if (IsFreshName(A) && IsFreshName(B))
      return fail(Fact, "cannot infer sorts in (= " + A.Text + " " + B.Text +
                            ")");
    Binding Lhs;
    if (!flattenPattern(Ctx, A, InvalidSort, Lhs))
      return false;
    // If the right side is a function call, reuse the left value as its
    // output column; otherwise emit an equality filter.
    if (B.isList() && B.size() > 0 && B[0].isSymbol()) {
      FunctionId Func;
      if (Graph.lookupFunctionName(B[0].Text, Func)) {
        const FunctionInfo &Info = Graph.function(Func);
        if (B.size() - 1 != Info.numKeys())
          return fail(B, "function '" + B[0].Text + "' expects " +
                             std::to_string(Info.numKeys()) + " arguments");
        if (Info.Decl.OutSort != Lhs.Sort)
          return fail(Fact, "(=) sides have different sorts");
        QueryAtom Atom;
        Atom.Func = Func;
        for (unsigned I = 0; I < Info.numKeys(); ++I) {
          Binding Arg;
          if (!flattenPattern(Ctx, B[I + 1], Info.Decl.ArgSorts[I], Arg))
            return false;
          Atom.Terms.push_back(Arg.Term);
        }
        Atom.Terms.push_back(Lhs.Term);
        Ctx.Q.Atoms.push_back(std::move(Atom));
        return true;
      }
    }
    Binding Rhs;
    if (!flattenPattern(Ctx, B, Lhs.Sort, Rhs))
      return false;
    PrimComputation Prim;
    if (!resolvePrim(Fact, "==", {Lhs.Sort, Rhs.Sort}, Prim.Prim))
      return false;
    Prim.Args = {Lhs.Term, Rhs.Term};
    Prim.Out = VarOrConst::makeConst(Graph.mkBool(true));
    Ctx.Q.Prims.push_back(std::move(Prim));
    return true;
  }

  if (Head == "!=") {
    if (Fact.size() != 3)
      return fail(Fact, "(!=) expects two arguments");
    Binding Lhs, Rhs;
    if (!flattenPattern(Ctx, Fact[1], InvalidSort, Lhs) ||
        !flattenPattern(Ctx, Fact[2], Lhs.Sort, Rhs))
      return false;
    PrimComputation Prim;
    if (!resolvePrim(Fact, "!=", {Lhs.Sort, Rhs.Sort}, Prim.Prim))
      return false;
    Prim.Args = {Lhs.Term, Rhs.Term};
    Prim.Out = VarOrConst::makeConst(Graph.mkBool(true));
    Ctx.Q.Prims.push_back(std::move(Prim));
    return true;
  }

  // A declared-function pattern is an occurrence check; a boolean
  // primitive is a filter.
  FunctionId Func;
  if (Graph.lookupFunctionName(Head, Func)) {
    Binding Ignored;
    return flattenPattern(Ctx, Fact, InvalidSort, Ignored);
  }
  if (Graph.primitives().knownName(Head)) {
    PrimComputation Prim;
    std::vector<SortId> ArgSorts;
    for (size_t I = 1; I < Fact.size(); ++I) {
      Binding Arg;
      if (!flattenPattern(Ctx, Fact[I], InvalidSort, Arg))
        return false;
      Prim.Args.push_back(Arg.Term);
      ArgSorts.push_back(Arg.Sort);
    }
    if (!resolvePrim(Fact, Head, ArgSorts, Prim.Prim))
      return false;
    if (Graph.primitives().get(Prim.Prim).OutSort != SortTable::BoolSort)
      return fail(Fact, "query condition must be a boolean primitive");
    Prim.Out = VarOrConst::makeConst(Graph.mkBool(true));
    Ctx.Q.Prims.push_back(std::move(Prim));
    return true;
  }
  return fail(Fact, "unknown function or primitive '" + Head + "'");
}

//===----------------------------------------------------------------------===
// Typechecking: expressions and actions
//===----------------------------------------------------------------------===

bool Frontend::typecheckExpr(RuleCtx &Ctx, const SExpr &Expr, SortId Expected,
                             TypedExpr &Out) {
  if (Expr.isSymbol()) {
    const std::string &Name = Expr.Text;
    if (Name == "true" || Name == "false") {
      Out = TypedExpr::makeLit(Graph.mkBool(Name == "true"));
    } else if (auto It = Ctx.Names.find(Name); It != Ctx.Names.end()) {
      const Binding &B = It->second;
      Out = B.Term.IsVar ? TypedExpr::makeVar(B.Term.Var, B.Sort)
                         : TypedExpr::makeLit(B.Term.Const);
    } else {
      FunctionId Func;
      if (!Graph.lookupFunctionName(Name, Func))
        return fail(Expr, "unbound variable '" + Name + "'");
      const FunctionInfo &Info = Graph.function(Func);
      if (Info.numKeys() != 0)
        return fail(Expr, "function '" + Name + "' takes arguments");
      Out = TypedExpr::makeCall(TypedExpr::Kind::FuncCall, Func,
                                Info.Decl.OutSort, {});
    }
  } else if (Expr.isInteger() || Expr.isFloat() || Expr.isString()) {
    Out = TypedExpr::makeLit(literalFor(Expr, Expected));
  } else if (Expr.isList() && Expr.size() == 0) {
    Out = TypedExpr::makeLit(Graph.mkUnit());
  } else {
    if (!Expr[0].isSymbol())
      return fail(Expr, "expected an expression");
    const std::string &Head = Expr[0].Text;
    FunctionId Func;
    if (Graph.lookupFunctionName(Head, Func)) {
      const FunctionInfo &Info = Graph.function(Func);
      if (Expr.size() - 1 != Info.numKeys())
        return fail(Expr, "function '" + Head + "' expects " +
                              std::to_string(Info.numKeys()) + " arguments");
      std::vector<TypedExpr> Args;
      for (unsigned I = 0; I < Info.numKeys(); ++I) {
        TypedExpr Arg;
        if (!typecheckExpr(Ctx, Expr[I + 1], Info.Decl.ArgSorts[I], Arg))
          return false;
        Args.push_back(std::move(Arg));
      }
      Out = TypedExpr::makeCall(TypedExpr::Kind::FuncCall, Func,
                                Info.Decl.OutSort, std::move(Args));
    } else if (Graph.primitives().knownName(Head) || Head == "!=" ||
               Head == "==") {
      std::vector<TypedExpr> Args;
      std::vector<SortId> ArgSorts;
      for (size_t I = 1; I < Expr.size(); ++I) {
        TypedExpr Arg;
        SortId ArgExpected = InvalidSort;
        // Give numeric literals a chance to adapt to a numeric sibling
        // sort (e.g. (+ x 1) where x is f64 or Rational).
        if (!ArgSorts.empty() && Expr[I].isInteger() &&
            (ArgSorts.front() == SortTable::F64Sort ||
             ArgSorts.front() == SortTable::RationalSort))
          ArgExpected = ArgSorts.front();
        if (!typecheckExpr(Ctx, Expr[I], ArgExpected, Arg))
          return false;
        ArgSorts.push_back(Arg.Type);
        Args.push_back(std::move(Arg));
      }
      uint32_t PrimId;
      if (!resolvePrim(Expr, Head, ArgSorts, PrimId))
        return false;
      Out = TypedExpr::makeCall(TypedExpr::Kind::PrimCall, PrimId,
                                Graph.primitives().get(PrimId).OutSort,
                                std::move(Args));
    } else {
      return fail(Expr, "unknown function or primitive '" + Head + "'");
    }
  }
  if (Expected != InvalidSort && Out.Type != Expected)
    return fail(Expr, "expected sort '" + Graph.sorts().name(Expected) +
                          "' but expression has sort '" +
                          Graph.sorts().name(Out.Type) + "'");
  return true;
}

bool Frontend::typecheckAction(RuleCtx &Ctx, const SExpr &Form,
                               std::vector<Action> &Out) {
  if (!Form.isList() || Form.size() == 0 || !Form[0].isSymbol())
    return fail(Form, "expected an action");
  const std::string &Head = Form[0].Text;

  if (Head == "set") {
    if (Form.size() != 3 || !Form[1].isList() || Form[1].size() == 0 ||
        !Form[1][0].isSymbol())
      return fail(Form, "usage: (set (f args...) value)");
    FunctionId Func;
    if (!Graph.lookupFunctionName(Form[1][0].Text, Func))
      return fail(Form[1], "unknown function '" + Form[1][0].Text + "'");
    const FunctionInfo &Info = Graph.function(Func);
    if (Form[1].size() - 1 != Info.numKeys())
      return fail(Form[1], "function '" + Info.Decl.Name + "' expects " +
                               std::to_string(Info.numKeys()) + " arguments");
    Action Act;
    Act.ActKind = Action::Kind::Set;
    Act.Func = Func;
    for (unsigned I = 0; I < Info.numKeys(); ++I) {
      TypedExpr Arg;
      if (!typecheckExpr(Ctx, Form[1][I + 1], Info.Decl.ArgSorts[I], Arg))
        return false;
      Act.Args.push_back(std::move(Arg));
    }
    if (!typecheckExpr(Ctx, Form[2], Info.Decl.OutSort, Act.Expr))
      return false;
    Out.push_back(std::move(Act));
    return true;
  }

  if (Head == "union") {
    if (Form.size() != 3)
      return fail(Form, "usage: (union a b)");
    Action Act;
    Act.ActKind = Action::Kind::Union;
    if (!typecheckExpr(Ctx, Form[1], InvalidSort, Act.Expr))
      return false;
    if (!Graph.sorts().isIdSort(Act.Expr.Type))
      return fail(Form[1], "only values of user sorts can be unioned");
    if (!typecheckExpr(Ctx, Form[2], Act.Expr.Type, Act.Expr2))
      return false;
    Out.push_back(std::move(Act));
    return true;
  }

  if (Head == "let" || Head == "define") {
    if (Form.size() != 3 || !Form[1].isSymbol())
      return fail(Form, "usage: (let name expr)");
    if (Ctx.Names.count(Form[1].Text))
      return fail(Form, "'" + Form[1].Text + "' is already bound");
    Action Act;
    Act.ActKind = Action::Kind::Let;
    if (!typecheckExpr(Ctx, Form[2], InvalidSort, Act.Expr))
      return false;
    uint32_t Slot = Ctx.NumSlots++;
    Act.Var = Slot;
    Ctx.Names[Form[1].Text] =
        Binding{VarOrConst::makeVar(Slot), Act.Expr.Type};
    Ctx.nameSlot(Slot, Form[1].Text);
    Out.push_back(std::move(Act));
    return true;
  }

  if (Head == "delete") {
    if (Form.size() != 2 || !Form[1].isList() || Form[1].size() == 0 ||
        !Form[1][0].isSymbol())
      return fail(Form, "usage: (delete (f args...))");
    FunctionId Func;
    if (!Graph.lookupFunctionName(Form[1][0].Text, Func))
      return fail(Form[1], "unknown function '" + Form[1][0].Text + "'");
    const FunctionInfo &Info = Graph.function(Func);
    if (Form[1].size() - 1 != Info.numKeys())
      return fail(Form[1], "function '" + Info.Decl.Name + "' expects " +
                               std::to_string(Info.numKeys()) + " arguments");
    Action Act;
    Act.ActKind = Action::Kind::Delete;
    Act.Func = Func;
    for (unsigned I = 0; I < Info.numKeys(); ++I) {
      TypedExpr Arg;
      if (!typecheckExpr(Ctx, Form[1][I + 1], Info.Decl.ArgSorts[I], Arg))
        return false;
      Act.Args.push_back(std::move(Arg));
    }
    Out.push_back(std::move(Act));
    return true;
  }

  if (Head == "panic") {
    Action Act;
    Act.ActKind = Action::Kind::Panic;
    Act.Message = Form.size() >= 2 && Form[1].isString() ? Form[1].Text
                                                         : "explicit panic";
    Out.push_back(std::move(Act));
    return true;
  }

  // Bare call: a fact assertion for unit functions, a term insertion
  // otherwise.
  FunctionId Func;
  if (Graph.lookupFunctionName(Head, Func) &&
      Graph.function(Func).Decl.OutSort == SortTable::UnitSort) {
    const FunctionInfo &Info = Graph.function(Func);
    if (Form.size() - 1 != Info.numKeys())
      return fail(Form, "function '" + Head + "' expects " +
                            std::to_string(Info.numKeys()) + " arguments");
    Action Act;
    Act.ActKind = Action::Kind::Set;
    Act.Func = Func;
    for (unsigned I = 0; I < Info.numKeys(); ++I) {
      TypedExpr Arg;
      if (!typecheckExpr(Ctx, Form[I + 1], Info.Decl.ArgSorts[I], Arg))
        return false;
      Act.Args.push_back(std::move(Arg));
    }
    Act.Expr = TypedExpr::makeLit(Graph.mkUnit());
    Out.push_back(std::move(Act));
    return true;
  }

  Action Act;
  Act.ActKind = Action::Kind::Eval;
  if (!typecheckExpr(Ctx, Form, InvalidSort, Act.Expr))
    return false;
  Out.push_back(std::move(Act));
  return true;
}

bool Frontend::typecheckCheckFact(const SExpr &Fact, CheckFact &Out) {
  RuleCtx Ctx;
  if (Fact.isCall("=") && Fact.size() == 3) {
    Out.FactKind = CheckFact::Kind::Equal;
    if (!typecheckExpr(Ctx, Fact[1], InvalidSort, Out.Lhs))
      return false;
    return typecheckExpr(Ctx, Fact[2], Out.Lhs.Type, Out.Rhs);
  }
  if (Fact.isCall("!=") && Fact.size() == 3) {
    Out.FactKind = CheckFact::Kind::NotEqual;
    if (!typecheckExpr(Ctx, Fact[1], InvalidSort, Out.Lhs))
      return false;
    return typecheckExpr(Ctx, Fact[2], Out.Lhs.Type, Out.Rhs);
  }
  Out.FactKind = CheckFact::Kind::Present;
  return typecheckExpr(Ctx, Fact, InvalidSort, Out.Lhs);
}
