package ulatclean

type Op uint8
type Group uint8

const GroupSimple Group = 0

const (
	ADDX Op = iota
	DBLX
	LOOPX
	FACTX
	PAIRX
	QUADX
	BSBX
	BRX
	PEEKX
)

type OpInfo struct {
	Code  Op
	Name  string
	Group Group
}

var opTable = []OpInfo{
	{ADDX, "ADDX", GroupSimple},
	{DBLX, "DBLX", GroupSimple},
	{LOOPX, "LOOPX", GroupSimple},
	{FACTX, "FACTX", GroupSimple},
	{PAIRX, "PAIRX", GroupSimple},
	{QUADX, "QUADX", GroupSimple},
	{BSBX, "BSBX", GroupSimple},
	{BRX, "BRX", GroupSimple},
	{PEEKX, "PEEKX", GroupSimple},
}
