package storage

import "os"

// BudgetFS wraps an FS so every write is charged against an
// ExecContext's page budget: WriteAt debits ⌈len/PageSize⌉ pages before
// reaching the underlying file. The compactor builds merged segments
// through it, bounding how much I/O one compaction may issue with the
// same accounting queries use for reads — once the budget is exhausted
// the in-flight build fails with ErrBudgetExceeded and the half-written
// segment is an inert orphan (nothing references it until the manifest
// swap). Reads, syncs and metadata operations are not charged.
type BudgetFS struct {
	Base FS
	Exec *ExecContext
}

// NewBudgetFS wraps base (nil means the real file system) so writes
// draw from ec's budget.
func NewBudgetFS(base FS, ec *ExecContext) *BudgetFS {
	return &BudgetFS{Base: DefaultFS(base), Exec: ec}
}

func (b *BudgetFS) Create(path string) (File, error) {
	f, err := b.Base.Create(path)
	if err != nil {
		return nil, err
	}
	return &budgetFile{File: f, exec: b.Exec}, nil
}

func (b *BudgetFS) Open(path string) (File, error) {
	f, err := b.Base.Open(path)
	if err != nil {
		return nil, err
	}
	return &budgetFile{File: f, exec: b.Exec}, nil
}

func (b *BudgetFS) ReadFile(path string) ([]byte, error)  { return b.Base.ReadFile(path) }
func (b *BudgetFS) Rename(oldpath, newpath string) error  { return b.Base.Rename(oldpath, newpath) }
func (b *BudgetFS) Remove(path string) error              { return b.Base.Remove(path) }
func (b *BudgetFS) MkdirAll(path string) error            { return b.Base.MkdirAll(path) }
func (b *BudgetFS) Stat(path string) (os.FileInfo, error) { return b.Base.Stat(path) }
func (b *BudgetFS) SyncDir(path string) error             { return b.Base.SyncDir(path) }

type budgetFile struct {
	File
	exec *ExecContext
}

func (f *budgetFile) WriteAt(p []byte, off int64) (int, error) {
	pages := int64(len(p)+PageSize-1) / PageSize
	if pages == 0 {
		pages = 1
	}
	if err := f.exec.Charge(pages); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}
