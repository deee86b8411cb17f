package ir

// Size returns the number of IR nodes in a function. The execution layer's
// compile-latency model scales with it, mirroring how C/LLVM compilation
// time grows with the amount of generated code.
func Size(f *Func) int {
	n := 1 + len(f.Ins)
	n += sizeStmts(f.Body)
	return n
}

func sizeStmts(list []Stmt) int {
	n := 0
	for _, s := range list {
		n += sizeStmt(s)
	}
	return n
}

// sizeStmt weighs one IR statement for the compile-latency model.
//
//inklint:dispatch ir.Stmt
func sizeStmt(s Stmt) int {
	switch s := s.(type) {
	case Assign:
		return 1 + sizeExpr(s.E)
	case Copy:
		return 1
	case FilterStmt:
		return 1 + len(s.Copies) + sizeStmts(s.Body)
	case MakeRow:
		return 1
	case PackFixed:
		return 1 + sizeExpr(s.Val)
	case PackStr:
		return 1 + sizeExpr(s.Val)
	case SealKey:
		return 1
	case AggLookup:
		return 2
	case AggLookupFixed:
		return 2
	case AggUpdate:
		n := 2
		if s.Val != nil {
			n += sizeExpr(s.Val)
		}
		return n
	case JoinInsert:
		return 2
	case Prefetch:
		return 1
	case ProbeStmt:
		return 3 + len(s.Copies) + sizeStmts(s.Body)
	case EmitStmt:
		return 1 + len(s.Cols)
	default:
		return 1
	}
}

// sizeExpr weighs one IR expression for the compile-latency model.
//
//inklint:dispatch ir.Expr
func sizeExpr(e Expr) int {
	switch e := e.(type) {
	case VarRef, ConstRef:
		return 1
	case BinExpr:
		return 1 + sizeExpr(e.L) + sizeExpr(e.R)
	case CmpExpr:
		return 1 + sizeExpr(e.L) + sizeExpr(e.R)
	case LogicExpr:
		return 1 + sizeExpr(e.L) + sizeExpr(e.R)
	case NotExpr:
		return 1 + sizeExpr(e.E)
	case CastExpr:
		return 1 + sizeExpr(e.E)
	case LikeExpr:
		return 1 + sizeExpr(e.S)
	case InListExpr:
		return 1 + sizeExpr(e.S)
	case StrLower:
		return 1 + sizeExpr(e.E)
	case CondExpr:
		return 1 + sizeExpr(e.Cond) + sizeExpr(e.Then) + sizeExpr(e.Else)
	case UnpackFixed:
		return 1 + sizeExpr(e.Row)
	case UnpackStr:
		return 1 + sizeExpr(e.Row)
	default:
		return 1
	}
}
