package store

import (
	"errors"
	"testing"
)

func TestCrashFSDurability(t *testing.T) {
	fs := NewCrashFS()
	f, err := fs.OpenFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("synced"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("UNSYNC"), 6); err != nil {
		t.Fatal(err)
	}
	fs.CutPower()
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("write on dead fs: %v", err)
	}
	fs.Reboot(false)
	got, err := fs.ReadFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "synced" {
		t.Fatalf("pessimistic reboot kept %q, want %q", got, "synced")
	}
}

func TestCrashFSRenameAtomicDurable(t *testing.T) {
	fs := NewCrashFS()
	f, _ := fs.OpenFile("meta.tmp")
	if _, err := f.WriteAt([]byte("new"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("meta.tmp", "meta"); err != nil {
		t.Fatal(err)
	}
	fs.CutPower()
	fs.Reboot(false)
	got, err := fs.ReadFile("meta")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("renamed file = %q, want %q", got, "new")
	}
	if ok, _ := fs.Exists("meta.tmp"); ok {
		t.Fatal("temp name survived rename")
	}
}
